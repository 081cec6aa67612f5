// Package vnet adapts the callback-push surface of internal/stack into the
// standard library's net shape — net.Conn, net.Listener, net.PacketConn and
// a DialContext — so ordinary blocking networked code, including an
// unmodified net/http.Server, runs inside the deterministic simulation with
// zero real sockets.
//
// # Determinism discipline
//
// The simulation kernel is single-threaded: every stack callback fires
// inside a scheduler event. Blocking net code is the opposite — a goroutine
// per connection, each parked in Read/Write/Accept most of the time. The
// Pump reconciles the two:
//
//   - One pump goroutine owns the scheduler. App goroutines never touch the
//     stack directly; every operation is a closure submitted to the pump and
//     executed there, which gives all operations a single total order and
//     keeps the stack lock-free.
//   - A grant counter gates the virtual clock. Completing a blocking
//     operation grants the woken goroutine "compute with the clock frozen";
//     entering the next operation returns the grant. The pump only advances
//     virtual time (dispatches the next simulation event) when no goroutine
//     holds a grant, so app compute takes zero virtual time and the event
//     order cannot depend on how fast the real CPU ran a handler — the same
//     contract engine.Map makes for analysis workers, applied to I/O.
//   - Grants are owned, keyed by runtime goroutine ID: entering an operation
//     returns the caller's own grant. Accept also hands out a birth grant
//     for the conn goroutine the accept loop is about to spawn, claimed by
//     that goroutine's first operation (it lapses if the accepter serves the
//     conn itself). Pump.Go starts its goroutine holding a grant.
//   - A caller holding nothing is stray: something other than a vnet
//     completion woke it. When its operation parks, or completes and lets
//     it keep running, it takes over a holder's grant — the handoff case, a
//     serve worker reading the body of a request whose handler holds the
//     grant while it waits on that worker. The exception is net/http's
//     per-request background reader, recognised by its creation frame:
//     nobody waits on it, and taking the grant of the handler it runs beside
//     would let the clock move under that handler.
//   - Completions that typically precede a goroutine's exit (EOF, ErrClosed,
//     connection reset, Close itself) grant nothing: a goroutine that
//     unwinds and dies after an error must not freeze the clock forever.
//     Code that keeps running after such an error is stray at its next
//     operation and settles there.
//
// Known slack, accepted and bounded: a goroutine spawned with a bare go
// statement computes without a grant until its first operation, racing the
// clock for that stretch. The pump yields through several settle rounds
// before every clock step so such goroutines almost always get their first
// operation in first, and a real-time stall valve (plus the
// vnet_grant_resets counter making it observable) recovers grants whose
// holder blocked outside vnet or exited, instead of deadlocking.
// Content-level results — served artifacts, response bodies — are
// deterministic regardless, because the serving pipeline's outputs don't
// depend on segment timing.
package vnet

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"iotlan/internal/obs"
	"iotlan/internal/sim"
)

const (
	// settleRounds is how many yield-and-poll rounds the pump runs before
	// concluding no app goroutine is about to submit an operation.
	settleRounds = 8
	// stallReset is the real-time valve on waiting for a grant holder: past
	// it the pump assumes the grants leaked (their goroutines exited) and
	// resets the gate rather than deadlocking the simulation.
	stallReset = 50 * time.Millisecond
)

// Pump drives a scheduler on behalf of blocking app goroutines. Exactly one
// Pump may drive a given scheduler; all Nets over that scheduler's LAN must
// share it.
type Pump struct {
	sched *sim.Scheduler
	calls chan func()
	// epoch is the virtual time the pump was created at, used to classify
	// deadlines (see abortDeadline).
	epoch time.Time

	// active counts outstanding compute grants: the sum of held and
	// births. Only the pump goroutine touches these three.
	active int
	// held maps a goroutine ID to the grants that goroutine holds.
	held map[uint64]int
	// births counts, per accepting goroutine, grants handed to the conn
	// goroutines it is about to spawn; the first op of a goroutine holding
	// nothing claims one.
	births map[uint64]int

	// running is true while Run executes. Non-blocking operations issued
	// before Run starts (test and scenario setup: Listen, ListenPacket)
	// execute inline on the caller — at that point the caller is the only
	// goroutine touching the scheduler, the same single-threaded contract
	// Scheduler.Run has always had.
	running atomic.Bool

	cResets *obs.Counter
}

// NewPump wraps a scheduler for vnet use. While Run is executing, all other
// access to the scheduler and its LAN must go through the pump.
func NewPump(s *sim.Scheduler) *Pump {
	return &Pump{
		sched:   s,
		calls:   make(chan func(), 256),
		epoch:   s.Now(),
		held:    make(map[uint64]int),
		births:  make(map[uint64]int),
		cResets: s.Telemetry.Registry.Counter("vnet_grant_resets"),
	}
}

// abortDeadline reports whether a deadline predates the simulation epoch.
// No in-sim deadline can be set in the past, so such a value is the stdlib's
// "aLongTimeAgo" unblock idiom (net/http aborts pending reads with it). A
// reader woken by an abort is about to unwind and exit, so its expiry grants
// no compute token — granting one would leak it and couple the virtual clock
// to the real-time stall valve.
func (p *Pump) abortDeadline(t time.Time) bool { return t.Before(p.epoch) }

// Now returns the current virtual time. Safe only from the pump goroutine or
// while the pump is not running; in-sim goroutines that need the time mid-run
// should capture it from operation results or use Sleep.
func (p *Pump) Now() time.Time { return p.sched.Now() }

// Go spawns an in-sim actor goroutine and returns a channel closed when it
// finishes. Unlike a bare go statement, the goroutine starts holding a
// grant, so the clock stays frozen until its first operation however late
// the Go scheduler runs it, and whatever it still holds when fn returns is
// dropped rather than leaked to the stall valve.
func (p *Pump) Go(fn func()) <-chan struct{} {
	done := make(chan struct{})
	id := make(chan uint64)
	granted := make(chan struct{})
	go func() {
		defer close(done)
		g := self().g
		id <- g
		// The grant must be queued ahead of fn's first operation.
		<-granted
		defer p.forget(g)
		fn()
	}()
	g := <-id
	p.submit(func() {
		p.held[g]++
		p.active++
	})
	close(granted)
	return done
}

// forget drops the grants of goroutine g, which has exited. Best effort: if
// the call queue is full the stall valve recovers them instead.
func (p *Pump) forget(g uint64) {
	select {
	case p.calls <- func() {
		p.active -= p.held[g]
		delete(p.held, g)
	}:
	default:
	}
}

// submit queues an operation for the pump goroutine.
func (p *Pump) submit(fn func()) { p.calls <- fn }

// caller identifies the goroutine entering an operation.
type caller struct {
	g uint64 // runtime goroutine ID
	// watcher marks a goroutine whose reads nobody waits on: net/http's
	// per-request background reader, which watches an idle conn for a
	// client close or a pipelined request while a handler computes.
	watcher bool
}

// watcherOrigin is the creation line of net/http's background reader.
var watcherOrigin = []byte("created by net/http.(*connReader).startBackgroundRead")

// stackBufs recycles the buffers self formats the caller's stack into.
var stackBufs = sync.Pool{New: func() any { b := make([]byte, 1024); return &b }}

// self identifies the calling goroutine from the trace runtime.Stack writes:
// the header line ("goroutine 42 [running]:") gives its ID, the trailing
// "created by" line its origin. A trace deeper than the buffer loses the
// origin line, which only watchers — shallow by construction — need.
func self() caller {
	bp := stackBufs.Get().(*[]byte)
	b := (*bp)[:runtime.Stack(*bp, false)]
	c := caller{
		g:       leadingUint(bytes.TrimPrefix(b, []byte("goroutine "))),
		watcher: bytes.Contains(b, watcherOrigin),
	}
	stackBufs.Put(bp)
	return c
}

// leadingUint parses the decimal digits at the start of b.
func leadingUint(b []byte) uint64 {
	var n uint64
	for _, d := range b {
		if d < '0' || d > '9' {
			break
		}
		n = n*10 + uint64(d-'0')
	}
	return n
}

// op is one operation's grant bookkeeping, owned by the pump goroutine.
type op struct {
	c caller
	// stray marks a caller that entered holding no grant: it was woken by
	// something other than a vnet completion (a channel handoff, a go
	// statement), and settles its account when the op parks or completes.
	stray bool
	// accept marks an Accept, which keeps the caller's birth grants.
	accept bool
}

// enter starts o on the pump: the caller returns its own grant, or claims a
// pending birth grant (it is the goroutine that grant was handed out for).
// A caller with neither is stray, unless it is a watcher.
func (p *Pump) enter(o *op) {
	if n := p.births[o.c.g]; n > 0 && !o.accept {
		// The accepter went on to use the conn itself: nobody is coming
		// to claim the birth grants.
		delete(p.births, o.c.g)
		p.active -= n
	}
	switch {
	case p.held[o.c.g] > 0:
		p.take(o.c.g)
	case len(p.births) > 0:
		p.claimBirth()
	default:
		o.stray = !o.c.watcher
	}
}

// park records that o blocks. A stray caller blocking is the handoff case —
// a worker reading the body of a request whose handler holds the grant
// while it waits on that worker — so it retires the holder's grant on its
// behalf, letting the clock move while both wait.
func (p *Pump) park(o *op) {
	if o.stray {
		o.stray = false
		p.adopt()
	}
}

// complete ends o, granting its caller n. A stray caller that completes
// without parking and keeps running (n > 0) takes the grant over from its
// holder rather than adding one; a stray caller completing terminally takes
// nothing — it is unwinding, not taking over anyone's work.
func (p *Pump) complete(o *op, n int) {
	if o.stray && n > 0 {
		p.adopt()
	}
	o.stray = false
	if n > 0 {
		p.held[o.c.g] += n
		p.active += n
	}
}

// adopt retires one holder's grant on behalf of a stray caller, lowest
// goroutine ID first so the choice does not follow map order.
func (p *Pump) adopt() {
	var h uint64
	found := false
	for g := range p.held {
		if !found || g < h {
			h, found = g, true
		}
	}
	if found {
		p.take(h)
	}
}

// take retires one of goroutine g's grants.
func (p *Pump) take(g uint64) {
	if p.held[g]--; p.held[g] == 0 {
		delete(p.held, g)
	}
	p.active--
}

// grantBirth hands out one grant for the conn goroutine accepter g is about
// to spawn: its compute up to its first op is clock-frozen too. If g's next
// op is not another Accept, it serves the conn itself and the grant lapses.
func (p *Pump) grantBirth(g uint64) {
	p.births[g]++
	p.active++
}

// claimBirth retires a pending birth grant for the stray op claiming it,
// lowest accepter ID first so the choice does not follow map order.
func (p *Pump) claimBirth() {
	var a uint64
	found := false
	for g := range p.births {
		if !found || g < a {
			a, found = g, true
		}
	}
	if p.births[a]--; p.births[a] == 0 {
		delete(p.births, a)
	}
	p.active--
}

// exec runs fn on the pump goroutine and blocks the caller until it ran. The
// caller is treated as paused during fn and resumed after — the shape of a
// non-blocking operation (Write, SetDeadline, CloseWrite).
func (p *Pump) exec(fn func()) {
	if !p.running.Load() {
		fn()
		return
	}
	o := &op{c: self()}
	done := make(chan struct{})
	p.submit(func() {
		p.enter(o)
		fn()
		p.complete(o, 1)
		close(done)
	})
	<-done
}

// execTerminal is exec for operations after which the caller may never call
// in again (Close): the completion grants nothing.
func (p *Pump) execTerminal(fn func()) {
	if !p.running.Load() {
		fn()
		return
	}
	o := &op{c: self()}
	done := make(chan struct{})
	p.submit(func() {
		p.enter(o)
		fn()
		p.complete(o, 0)
		close(done)
	})
	<-done
}

// Sleep parks the calling goroutine for a virtual duration. The wake is a
// granted completion, so the caller's follow-up compute is clock-frozen like
// any read result.
func (p *Pump) Sleep(d time.Duration) {
	o := &op{c: self()}
	ch := make(chan struct{}, 1)
	p.submit(func() {
		p.enter(o)
		p.park(o)
		p.sched.AfterTagged("vnet", d, func() {
			p.complete(o, 1)
			ch <- struct{}{}
		})
	})
	<-ch
}

// Run drives the simulation until the virtual clock reaches until, giving
// app goroutines their rendezvous between events. It replaces
// Scheduler.Run/RunFor whenever vnet connections are in play.
func (p *Pump) Run(until time.Time) {
	p.running.Store(true)
	defer p.running.Store(false)
	for {
		// Drain every queued operation first: operations never advance the
		// clock, so draining is always safe and keeps the total order long.
		draining := true
		for draining {
			select {
			case fn := <-p.calls:
				fn()
			default:
				draining = false
			}
		}
		if p.active > 0 {
			// Somebody computes with the clock frozen; wait for their next
			// operation. The valve recovers grants whose holder exited or
			// blocked outside vnet with nobody stray to take them over.
			select {
			case fn := <-p.calls:
				fn()
			case <-time.After(stallReset):
				p.cResets.Add(uint64(p.active))
				p.active = 0
				clear(p.held)
				clear(p.births)
			}
			continue
		}
		if p.settle() {
			continue
		}
		if p.sched.Step(until) {
			continue
		}
		// No grants, no operations after settling, no events before until:
		// one last generous settle for goroutines the runtime parked
		// mid-compute, then finish.
		if p.settleHard() {
			continue
		}
		p.sched.AdvanceTo(until)
		return
	}
}

// RunFor is Run for a duration from the current virtual time.
func (p *Pump) RunFor(d time.Duration) { p.Run(p.sched.Now().Add(d)) }

// settle yields the processor a few times, giving runnable goroutines the
// chance to submit their next operation before the clock moves. Reports
// whether any operation was processed.
func (p *Pump) settle() bool {
	for i := 0; i < settleRounds; i++ {
		runtime.Gosched()
		select {
		case fn := <-p.calls:
			fn()
			return true
		default:
		}
	}
	return false
}

// settleHard is settle with real-time backoff, used only right before Run
// returns: a goroutine preempted mid-compute gets up to ~2 ms of wall time
// to land its operation instead of being stranded past the end of Run.
func (p *Pump) settleHard() bool {
	for i := 0; i < 20; i++ {
		select {
		case fn := <-p.calls:
			fn()
			return true
		case <-time.After(100 * time.Microsecond):
		}
	}
	return false
}
