package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// The scheduler's former queue, one heap entry per event ordered by
// (at, seq), kept as the oracle for dispatch order: the bucketed queue must
// dispatch exactly as this did, for every program below.

type refEvent struct {
	at        time.Time
	seq       uint64
	fn        func()
	cancelled bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at.Equal(h[j].at) {
		return h[i].seq < h[j].seq
	}
	return h[i].at.Before(h[j].at)
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}

// refScheduler is the reference scheduler: the pre-bucket dispatch loop
// over refHeap, without pooling or telemetry.
type refScheduler struct {
	now       time.Time
	seq       uint64
	rng       *rand.Rand
	events    refHeap
	stopped   bool
	processed uint64
	cancelled uint64
}

type refTimer struct {
	ev      *refEvent
	stopped bool
}

func (t *refTimer) Stop() {
	t.stopped = true
	if t.ev != nil {
		t.ev.cancelled = true
	}
}

func newRefScheduler(seed int64) *refScheduler {
	return &refScheduler{now: Epoch, rng: rand.New(rand.NewSource(seed))}
}

func (r *refScheduler) schedule(at time.Time, fn func()) *refEvent {
	if at.Before(r.now) {
		at = r.now
	}
	ev := &refEvent{at: at, seq: r.seq, fn: fn}
	r.seq++
	heap.Push(&r.events, ev)
	return ev
}

func (r *refScheduler) Now() time.Time { return r.now }
func (r *refScheduler) Stop()          { r.stopped = true }
func (r *refScheduler) Pending() int   { return len(r.events) }
func (r *refScheduler) Counts() (uint64, uint64) {
	return r.processed, r.cancelled
}

func (r *refScheduler) At(at time.Time, fn func()) stopper {
	return &refTimer{ev: r.schedule(at, fn)}
}

func (r *refScheduler) Every(first, period, jitter time.Duration, fn func()) stopper {
	handle := &refTimer{}
	var tick func()
	tick = func() {
		if handle.stopped {
			return
		}
		fn()
		if handle.stopped {
			return
		}
		d := period
		if jitter > 0 {
			d += time.Duration(r.rng.Int63n(int64(2*jitter))) - jitter
			if d <= 0 {
				d = period
			}
		}
		handle.ev = r.schedule(r.now.Add(d), tick)
	}
	handle.ev = r.schedule(r.now.Add(first), tick)
	return handle
}

// pop dispatches the front event if it is due by until; it reports whether
// an event was due and whether it ran.
func (r *refScheduler) pop(until time.Time) (due, ran bool) {
	if len(r.events) == 0 || r.events[0].at.After(until) {
		return false, false
	}
	ev := heap.Pop(&r.events).(*refEvent)
	if ev.cancelled {
		r.cancelled++
		return true, false
	}
	r.now = ev.at
	ev.cancelled = true // a Stop from inside its own callback is a no-op
	ev.fn()
	r.processed++
	return true, true
}

func (r *refScheduler) Run(until time.Time) uint64 {
	start := r.processed
	r.stopped = false
	for !r.stopped {
		if due, _ := r.pop(until); !due {
			break
		}
	}
	if r.now.Before(until) {
		r.now = until
	}
	return r.processed - start
}

func (r *refScheduler) Step(until time.Time) bool {
	for {
		due, ran := r.pop(until)
		if !due {
			return false
		}
		if ran {
			return true
		}
	}
}

// queue is the surface both schedulers expose to the test programs.
type queue interface {
	Now() time.Time
	At(at time.Time, fn func()) stopper
	Every(first, period, jitter time.Duration, fn func()) stopper
	Run(until time.Time) uint64
	Step(until time.Time) bool
	Stop()
	Pending() int
	Counts() (processed, cancelled uint64)
}

type stopper interface{ Stop() }

// realQueue adapts *Scheduler to queue and checks after every Run and Step
// that the queue-depth gauge counts events.
type realQueue struct {
	*Scheduler
	t *testing.T
}

func (q realQueue) At(at time.Time, fn func()) stopper { return q.Scheduler.At(at, fn) }
func (q realQueue) Every(first, period, jitter time.Duration, fn func()) stopper {
	return q.Scheduler.Every(first, period, jitter, fn)
}
func (q realQueue) Counts() (uint64, uint64) { return q.Processed, q.Cancelled }

func (q realQueue) checkGauge() {
	if got, want := q.gQueue.Value(), int64(q.Pending()); got != want {
		q.t.Fatalf("sim_queue_depth = %d, Pending = %d", got, want)
	}
}

func (q realQueue) Run(until time.Time) uint64 {
	n := q.Scheduler.Run(until)
	q.checkGauge()
	return n
}

func (q realQueue) Step(until time.Time) bool {
	ran := q.Scheduler.Step(until)
	q.checkGauge()
	return ran
}

// runProgram drives q through a random program drawn from seed and returns
// the log of everything observable: each dispatch with its instant, and
// the clock, queue depth and counters after each driver operation. While
// the two schedulers agree, both consume the program's random stream
// identically, so the first differing line is the first divergence.
func runProgram(q queue, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var log []string
	var timers []stopper
	virt := func() time.Duration { return q.Now().Sub(Epoch) }

	// offset draws a delay with many exact ties: the LAN's constant
	// latency, zero, and past instants that clamp to now.
	offset := func() time.Duration {
		switch rng.Intn(8) {
		case 0, 1:
			return 0
		case 2, 3:
			return 250 * time.Microsecond
		case 4:
			return time.Microsecond
		case 5:
			return 3 * time.Second
		case 6:
			return -time.Duration(rng.Intn(int(time.Second)))
		default:
			return time.Duration(rng.Intn(int(10 * time.Millisecond)))
		}
	}

	next := 0
	var schedule func(d time.Duration)
	// act is what a one-shot event does when it fires.
	act := func() {
		switch rng.Intn(12) {
		case 0, 1:
			schedule(0) // at now, from inside a callback
		case 2:
			schedule(offset())
		case 3:
			if len(timers) > 0 {
				timers[rng.Intn(len(timers))].Stop() // often stale
			}
		case 4:
			q.Stop() // mid-bucket when others share this instant
		}
	}
	schedule = func(d time.Duration) {
		id := next
		next++
		timers = append(timers, q.At(q.Now().Add(d), func() {
			log = append(log, fmt.Sprintf("ev %d @%d", id, virt()))
			act()
		}))
	}
	every := func() {
		id := next
		next++
		periods := []time.Duration{250 * time.Microsecond, time.Millisecond, time.Second}
		period := periods[rng.Intn(len(periods))]
		jitter := []time.Duration{0, period / 2, period}[rng.Intn(3)]
		ticks, max := 0, 1+rng.Intn(20)
		var tm stopper
		tm = q.Every(offset(), period, jitter, func() {
			ticks++
			log = append(log, fmt.Sprintf("every %d #%d @%d", id, ticks, virt()))
			if ticks == max {
				tm.Stop() // from inside its own callback
			}
		})
		timers = append(timers, tm)
	}

	for op := 0; op < 120; op++ {
		switch rng.Intn(7) {
		case 0, 1:
			for n := 1 + rng.Intn(40); n > 0; n-- {
				schedule(offset())
			}
		case 2:
			every()
		case 3:
			if len(timers) > 0 {
				timers[rng.Intn(len(timers))].Stop()
			}
		case 4:
			n := q.Run(q.Now().Add(offset()))
			log = append(log, fmt.Sprintf("run %d", n))
		default:
			until := q.Now().Add(offset())
			for n := rng.Intn(30); n > 0; n-- {
				log = append(log, fmt.Sprintf("step %v", q.Step(until)))
			}
		}
		p, c := q.Counts()
		log = append(log, fmt.Sprintf("op %d now=%d pending=%d processed=%d cancelled=%d",
			op, virt(), q.Pending(), p, c))
	}
	for i := 0; i < 100 && q.Pending() > 0; i++ { // drain, resuming after each Stop
		q.Run(q.Now().Add(time.Hour))
	}
	p, c := q.Counts()
	return append(log, fmt.Sprintf("end now=%d pending=%d processed=%d cancelled=%d",
		virt(), q.Pending(), p, c))
}

// TestDispatchOrderMatchesReference drives the scheduler and the reference
// heap through the same random programs and requires identical logs: the
// same events at the same instants in the same order, ties FIFO by schedule
// order, with the same clock, depth and counters after every operation.
func TestDispatchOrderMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		want := runProgram(newRefScheduler(seed), seed)
		got := runProgram(realQueue{NewScheduler(seed), t}, seed)
		for i := 0; i < len(want) && i < len(got); i++ {
			if got[i] != want[i] {
				t.Fatalf("seed %d: first divergence at line %d: got %q, want %q", seed, i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log lines, want %d", seed, len(got), len(want))
		}
	}
}
