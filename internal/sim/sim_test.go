package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	s.After(3*time.Second, func() { order = append(order, 3) })
	s.After(1*time.Second, func() { order = append(order, 1) })
	s.After(2*time.Second, func() { order = append(order, 2) })
	s.RunFor(10 * time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	at := s.Now().Add(time.Second)
	for i := 0; i < 10; i++ {
		i := i
		s.At(at, func() { order = append(order, i) })
	}
	s.RunFor(2 * time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestSchedulerClockAdvances(t *testing.T) {
	s := NewScheduler(1)
	var seen time.Time
	s.After(90*time.Minute, func() { seen = s.Now() })
	s.RunFor(2 * time.Hour)
	want := Epoch.Add(90 * time.Minute)
	if !seen.Equal(want) {
		t.Fatalf("event saw clock %v, want %v", seen, want)
	}
	if !s.Now().Equal(Epoch.Add(2 * time.Hour)) {
		t.Fatalf("clock after RunFor = %v, want %v", s.Now(), Epoch.Add(2*time.Hour))
	}
}

func TestTimerStop(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	tm := s.After(time.Second, func() { fired = true })
	tm.Stop()
	s.RunFor(5 * time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestEveryRecursAndStops(t *testing.T) {
	s := NewScheduler(1)
	n := 0
	tm := s.Every(time.Second, time.Second, 0, func() { n++ })
	s.RunFor(5500 * time.Millisecond)
	if n != 5 {
		t.Fatalf("Every fired %d times, want 5", n)
	}
	tm.Stop()
	s.RunFor(10 * time.Second)
	if n != 5 {
		t.Fatalf("Every fired after Stop: %d", n)
	}
}

// A stopped Every recurrence must not fire and must be accounted as a
// cancelled event, not a processed one.
func TestEveryStopCountsCancelledNotProcessed(t *testing.T) {
	s := NewScheduler(1)
	n := 0
	tm := s.EveryTagged("test", time.Second, time.Second, 0, func() { n++ })
	s.RunFor(3500 * time.Millisecond)
	if n != 3 {
		t.Fatalf("Every fired %d times before Stop, want 3", n)
	}
	processedBefore := s.Processed
	tm.Stop()
	s.RunFor(10 * time.Second)
	if n != 3 {
		t.Fatalf("Every fired after Stop: %d", n)
	}
	if s.Cancelled != 1 {
		t.Fatalf("Cancelled = %d, want 1 (the pending recurrence)", s.Cancelled)
	}
	if s.Processed != processedBefore {
		t.Fatalf("cancelled recurrence counted as processed (%d → %d)",
			processedBefore, s.Processed)
	}
	reg := s.Telemetry.Registry
	if got := reg.CounterValue("sim_events_cancelled{source=test}"); got != 1 {
		t.Fatalf("sim_events_cancelled{source=test} = %d, want 1", got)
	}
	if got := reg.CounterValue("sim_events_processed{source=test}"); got != 3 {
		t.Fatalf("sim_events_processed{source=test} = %d, want 3", got)
	}
}

// Stopping a recurring timer from inside its own callback must halt the
// recurrence: the in-flight tick already rescheduled nothing.
func TestEveryStopFromInsideCallback(t *testing.T) {
	s := NewScheduler(1)
	n := 0
	var tm *Timer
	tm = s.Every(time.Second, time.Second, 0, func() {
		n++
		if n == 2 {
			tm.Stop()
		}
	})
	s.RunFor(time.Minute)
	if n != 2 {
		t.Fatalf("Every fired %d times, want exactly 2 (stopped inside tick)", n)
	}
	if s.Pending() != 0 {
		t.Fatalf("stopped recurrence left %d events queued", s.Pending())
	}
}

func TestSchedulerSourceAccounting(t *testing.T) {
	s := NewScheduler(1)
	s.AfterTagged("lan", time.Second, func() {})
	s.AfterTagged("lan", 2*time.Second, func() {})
	s.After(3*time.Second, func() {}) // untagged → "other"
	s.RunFor(time.Minute)
	reg := s.Telemetry.Registry
	if got := reg.CounterValue("sim_events_processed{source=lan}"); got != 2 {
		t.Fatalf("lan-source events = %d, want 2", got)
	}
	if got := reg.CounterValue("sim_events_processed{source=other}"); got != 1 {
		t.Fatalf("other-source events = %d, want 1", got)
	}
	if got := reg.Total("sim_events_processed"); got != s.Processed {
		t.Fatalf("registry total %d != Processed %d", got, s.Processed)
	}
}

func TestEveryJitterStaysPositive(t *testing.T) {
	s := NewScheduler(42)
	n := 0
	s.Every(time.Millisecond, 10*time.Millisecond, 9*time.Millisecond, func() { n++ })
	s.RunFor(time.Second)
	if n < 50 || n > 1200 {
		t.Fatalf("jittered Every fired %d times, outside sane range", n)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int64 {
		s := NewScheduler(7)
		var ticks []int64
		s.Every(0, time.Minute, 30*time.Second, func() {
			ticks = append(ticks, s.Now().Sub(Epoch).Milliseconds())
		})
		s.RunFor(time.Hour)
		return ticks
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different run lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestStopInsideEvent(t *testing.T) {
	s := NewScheduler(1)
	n := 0
	s.After(time.Second, func() { n++; s.Stop() })
	s.After(2*time.Second, func() { n++ })
	s.RunFor(time.Hour)
	if n != 1 {
		t.Fatalf("Stop did not halt dispatch: n=%d", n)
	}
	// A later Run resumes where it left off.
	s.Run(s.Now().Add(time.Hour))
	if n != 2 {
		t.Fatalf("resume after Stop: n=%d, want 2", n)
	}
}

func TestPastEventsRunImmediately(t *testing.T) {
	s := NewScheduler(1)
	s.RunFor(time.Hour)
	fired := false
	s.At(Epoch, func() { fired = true }) // in the past now
	s.RunFor(time.Nanosecond)
	if !fired {
		t.Fatal("past-scheduled event did not fire")
	}
}

// Property: for any set of non-negative delays, Run dispatches them in
// non-decreasing timestamp order.
func TestQuickOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		s := NewScheduler(3)
		var fired []time.Time
		for _, d := range delays {
			s.After(time.Duration(d)*time.Millisecond, func() {
				fired = append(fired, s.Now())
			})
		}
		s.RunFor(time.Hour)
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].Before(fired[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSchedulerDispatch(b *testing.B) {
	b.Run("AtTagged", func(b *testing.B) {
		s := NewScheduler(1)
		fn := func() {}
		s.AtTagged("bench", s.Now(), fn)
		s.RunFor(time.Millisecond)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.AtTagged("bench", s.Now().Add(time.Microsecond), fn)
			s.RunFor(time.Millisecond)
		}
	})
	b.Run("AtRunner", func(b *testing.B) {
		s := NewScheduler(1)
		r := &benchRunner{}
		s.AtRunner("bench", s.Now(), r)
		s.RunFor(time.Millisecond)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.AtRunner("bench", s.Now().Add(time.Microsecond), r)
			s.RunFor(time.Millisecond)
		}
	})
	// SameInstant is the port sweep's shape: 65,536 events queued at one
	// instant (one SYN delivery per port), then drained.
	b.Run("SameInstant", func(b *testing.B) {
		const n = 1 << 16
		s := NewScheduler(1)
		r := &benchRunner{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			at := s.Now().Add(250 * time.Microsecond)
			for j := 0; j < n; j++ {
				s.AtRunner("bench", at, r)
			}
			s.RunFor(time.Millisecond)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/event")
	})
	// Jittered is the idle chatter's shape: 4,096 recurring timers at
	// distinct instants, each dispatch rescheduling its timer at a jittered
	// delay. One op is one dispatch plus one schedule.
	b.Run("Jittered", func(b *testing.B) {
		s := NewScheduler(1)
		for i := 0; i < 4096; i++ {
			r := &jitterRunner{s: s}
			s.AfterRunner("bench", r.delay(), r)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step(s.Now().Add(time.Hour))
		}
	})
}

type benchRunner struct{ fired int }

func (r *benchRunner) Fire() { r.fired++ }

// jitterRunner reschedules itself 1 ms to 1 s after each firing.
type jitterRunner struct{ s *Scheduler }

func (r *jitterRunner) delay() time.Duration {
	return time.Millisecond + time.Duration(r.s.Rand().Int63n(int64(time.Second)))
}

func (r *jitterRunner) Fire() { r.s.AfterRunner("bench", r.delay(), r) }
