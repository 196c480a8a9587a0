package sim

import (
	"testing"
	"time"
)

// TestSteadyStateZeroAlloc pins the tentpole guarantee: once the heap's
// backing array and the lane arena have grown to their working-set size,
// scheduling and dispatching events, pushing to and delivering from lanes,
// re-arming timers, and ticking tickers perform zero allocations.
// Regressions here silently re-introduce GC pressure into every simulated
// packet.
func TestSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine(1)

	// Warm the heap's backing array. Runs are bounded (not Run(End)) so the
	// clock stays finite and later schedules remain valid.
	for i := 0; i < 64; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	e.RunFor(time.Second)

	var fn func()
	fn = func() {}
	if n := testing.AllocsPerRun(100, func() {
		e.Schedule(time.Microsecond, fn)
		e.RunFor(time.Second)
	}); n != 0 {
		t.Errorf("Schedule+Run with reused closure: %.1f allocs/op, want 0", n)
	}

	call := func(any) {}
	arg := new(int)
	if n := testing.AllocsPerRun(100, func() {
		e.ScheduleCall(time.Microsecond, call, arg)
		e.RunFor(time.Second)
	}); n != 0 {
		t.Errorf("ScheduleCall with pointer arg: %.1f allocs/op, want 0", n)
	}

	tm := NewTimer(e, func() {})
	if n := testing.AllocsPerRun(100, func() {
		tm.Reset(time.Microsecond) // fresh arm
		tm.Reset(time.Millisecond) // in-place move
		e.RunFor(time.Second)
	}); n != 0 {
		t.Errorf("Timer.Reset: %.1f allocs/op, want 0", n)
	}

	// Lanes: pushes (some at one instant) and dispatch through the arena,
	// with one lane's deliveries forwarding into a second lane the way a
	// link hands packets to a delay line.
	var hop, last Lane
	last.Init(e, call)
	hop.Init(e, func(a any) { last.Push(e.Now().Add(time.Millisecond), a) })
	for i := 0; i < 256; i++ { // warm the arena past the working set below
		hop.Push(e.Now(), arg)
	}
	e.RunFor(time.Second)
	arena := cap(e.laneNodes)
	if n := testing.AllocsPerRun(100, func() {
		at := e.Now()
		for i := 0; i < 100; i++ {
			hop.Push(at.Add(time.Duration(i/4)*time.Microsecond), arg)
		}
		e.RunFor(time.Second)
	}); n != 0 {
		t.Errorf("Lane push+dispatch: %.1f allocs/op, want 0", n)
	}
	// AllocsPerRun rounds down, which would hide amortised arena growth:
	// delivered nodes must be reused, so the arena must not have grown.
	if got := cap(e.laneNodes); got != arena {
		t.Errorf("lane arena grew from %d to %d nodes in steady state", arena, got)
	}

	tk := NewTicker(e, time.Millisecond, nil)
	ticks := 0
	tk.fn = func() {
		ticks++
		if ticks%8 == 0 {
			tk.Stop()
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		tk.Start(false)
		e.RunFor(time.Second)
	}); n != 0 {
		t.Errorf("Ticker steady state: %.1f allocs/op, want 0", n)
	}
}

// TestPoppedSlotsZeroed verifies that dispatch and cancellation zero the
// vacated heap slots: a popped event's closure, call argument, and entry
// pointer must not linger in the backing array where they would pin
// otherwise-dead objects for the lifetime of the engine.
func TestPoppedSlotsZeroed(t *testing.T) {
	e := NewEngine(1)
	big := make([]byte, 1<<10)
	for i := 0; i < 16; i++ {
		e.Schedule(time.Duration(i+1)*time.Millisecond, func() { _ = big })
		e.ScheduleCall(time.Duration(i+1)*time.Millisecond, func(any) {}, &big)
	}
	tm := NewTimer(e, func() {})
	tm.Reset(5 * time.Millisecond)
	tm.Stop() // cancellation path must zero too
	e.Run(End)

	if len(e.events) != 0 {
		t.Fatalf("%d events still pending", len(e.events))
	}
	spare := e.events[:cap(e.events)]
	for i, ev := range spare {
		if ev.call != nil || ev.arg != nil || ev.ent != nil {
			t.Fatalf("vacated slot %d not zeroed: %+v", i, ev)
		}
	}
}

// TestStopOnlyAffectsCurrentRun is the regression test for the old Stop
// semantics, where a single Stop left the engine permanently stopped and
// every later Run returned without dispatching anything. Run must clear the
// flag on entry so a stopped engine resumes from its pending queue.
func TestStopOnlyAffectsCurrentRun(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Schedule(1*time.Millisecond, func() { order = append(order, 1); e.Stop() })
	e.Schedule(2*time.Millisecond, func() { order = append(order, 2) })
	e.Schedule(3*time.Millisecond, func() { order = append(order, 3) })

	e.Run(End)
	if len(order) != 1 || e.Pending() != 2 {
		t.Fatalf("after stopped run: order=%v pending=%d, want [1] and 2", order, e.Pending())
	}
	if got := e.Now(); got != At(1*time.Millisecond) {
		t.Fatalf("clock advanced to %v during stopped run", got)
	}

	// The next Run resumes; Stop did not brick the engine.
	e.Run(At(time.Second))
	if len(order) != 3 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("resume dispatched %v, want [1 2 3]", order)
	}

	// Stop outside a run only affects the next Run's first iteration check;
	// Run clears it on entry, so scheduling and running still works.
	e.Stop()
	fired := false
	e.Schedule(time.Millisecond, func() { fired = true })
	e.Run(At(2 * time.Second))
	if !fired {
		t.Fatal("Run after out-of-run Stop dispatched nothing")
	}
}

// TestStatsCancelAndMoveCounters checks the extended Stats accounting: every
// event leaves the queue either by dispatch or by cancellation, in-place
// reschedules are counted as moves (not new schedules), and the invariant
// EventsDispatched == EventsScheduled - EventsCancelled - Pending holds
// through arbitrary timer churn.
func TestStatsCancelAndMoveCounters(t *testing.T) {
	e := NewEngine(1)
	check := func(ctx string) {
		s := e.Stats()
		if s.EventsDispatched != s.EventsScheduled-s.EventsCancelled-uint64(s.Pending) {
			t.Fatalf("%s: invariant broken: %+v", ctx, s)
		}
	}

	tm := NewTimer(e, func() {})
	tm.Reset(time.Millisecond) // push: scheduled
	tm.Reset(2 * time.Millisecond)
	tm.Reset(3 * time.Millisecond) // two in-place moves
	check("after resets")
	if s := e.Stats(); s.TimerMoves != 2 || s.EventsScheduled != 1 {
		t.Errorf("moves=%d scheduled=%d, want 2 and 1", s.TimerMoves, s.EventsScheduled)
	}

	tm.Stop()
	tm.Stop() // second stop is a no-op, not a second cancellation
	check("after stop")
	if s := e.Stats(); s.EventsCancelled != 1 {
		t.Errorf("cancelled=%d, want 1", s.EventsCancelled)
	}

	tk := NewTicker(e, time.Millisecond, nil)
	n := 0
	tk.fn = func() {
		n++
		if n == 5 {
			tk.Stop()
		}
	}
	tk.Start(true)
	e.Schedule(10*time.Millisecond, func() {})
	e.Run(End)
	check("after run")
	if s := e.Stats(); s.Pending != 0 || s.EventsDispatched == 0 {
		t.Errorf("unexpected final stats: %+v", s)
	}
}
