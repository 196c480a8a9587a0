// Package sim provides the discrete-event simulation engine that everything
// else in the testbed is built on: a virtual clock, a time-ordered event
// queue, timers, and a deterministic seeded random number generator.
//
// A simulation run is a pure function of its inputs and seed: the engine
// never consults the wall clock, and events scheduled for the same instant
// dispatch in the order they were scheduled, so two runs with identical
// configuration produce bit-identical results.
//
// The event core is built for zero steady-state allocations on the hot
// path (see docs/ARCHITECTURE.md, "hot path & memory discipline"):
//
//   - the queue is a concrete-typed 4-ary min-heap of 48-byte event values,
//     so pushing an event never boxes through interface{} the way
//     container/heap does;
//   - Run drains all events sharing the head timestamp into a small fixed
//     batch buffer and dispatches them without re-touching the heap root
//     per event;
//   - popped heap slots are zeroed so dispatched closures and arguments
//     become garbage-collectable immediately;
//   - Timer and Ticker own an indexed heap entry that Reset/Stop move or
//     remove in place instead of abandoning tombstone events in the queue;
//   - ScheduleCall carries a pre-built func(arg) plus a pointer-shaped
//     argument through the event record itself, so one-off deliveries
//     need no per-event closure allocation;
//   - a Lane queues deliveries that are already in time order (packets in
//     flight through a link or delay line, a population's ON/OFF schedule)
//     in a FIFO outside the heap, which holds one slot per non-empty lane
//     keyed by its head. Each lane item takes its sequence number when it
//     is pushed, so dispatch order is the one ScheduleCallAt would give.
package sim

import (
	"fmt"
	"time"
)

// Time is a virtual timestamp, in nanoseconds since the start of the run.
type Time int64

// Common instants.
const (
	Start Time = 0
	End   Time = Time(1<<63 - 1)
)

// At returns the Time d after the start of the run.
func At(d time.Duration) Time { return Time(d) }

// Add returns t advanced by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts t to the duration since the start of the run.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds returns t in seconds since the start of the run.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// String formats t as a duration since the start of the run.
func (t Time) String() string { return time.Duration(t).String() }

// event is one queued dispatch, kept at 48 bytes so heap sift copies stay
// cheap. It takes one of three forms: call+arg (a prebuilt function applied
// to an argument; one-shot closures from Schedule travel this way too, as
// runClosure applied to the func() boxed in arg — func values are
// pointer-shaped, so the boxing never allocates), ent (an indexed
// Timer/Ticker entry), or a lane slot (call and ent nil, arg the *Lane,
// keyed by the lane's head item; see popLane).
type event struct {
	at   Time
	seq  uint64 // tiebreaker: preserves scheduling order for simultaneous events
	call func(any)
	arg  any
	ent  *entry
}

// runClosure is the shared dispatch shim for Schedule: the scheduled func()
// rides in the event's arg slot.
func runClosure(a any) { a.(func())() }

// entry is the reschedulable heap handle owned by a Timer or Ticker. The
// heap keeps pos up to date as the entry's event moves, so Reset and Stop
// operate on the live queue position in O(log n) instead of abandoning a
// tombstone event per call.
//
// An entry fires through exactly one of two callback forms: fn (a plain
// func(), possibly a method value allocated at construction) or call+arg
// (a shared prebuilt func(any) applied to a pointer-shaped argument — the
// ScheduleCall pattern, which lets value-embedded timers initialise with
// zero allocations; see Timer.InitCall).
//
// pos encodes where the entry's event lives: a heap index when queued,
// -1 when disarmed, and -2-i when drained into batch slot i of the Run
// loop's dispatch buffer but not yet dispatched. Reset/Stop on a drained
// entry adjust pos (and the engine's inBatch count), which makes the
// dispatch loop skip the stale batch slot.
type entry struct {
	fn   func()
	call func(any)
	arg  any
	pos  int
}

// fire dispatches the entry's callback.
func (en *entry) fire() {
	if en.call != nil {
		en.call(en.arg)
		return
	}
	en.fn()
}

// batchCap bounds one drain pass of the Run loop. Bursts of more than
// batchCap events at one instant are dispatched in successive passes, still
// in seq order, so the cap affects only locality, never semantics.
const batchCap = 64

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now     Time
	seq     uint64 // ordering counter; advances on every (re)schedule
	events  []event
	stopped bool
	// serial disables the batched drain loop (SetBatchDispatch(false)),
	// keeping the one-pop-per-event reference path for differential tests.
	serial bool
	// inBatch counts events drained into the Run loop's batch buffer that
	// have not yet dispatched (or been cancelled/moved from the buffer).
	// Logical pending = len(events) + inBatch, so Stats taken from inside a
	// callback are identical between batched and serial dispatch.
	inBatch int
	rng     *RNG
	// processed counts dispatched events, for diagnostics and benchmarks.
	processed uint64
	// scheduled counts events pushed into the queue.
	scheduled uint64
	// cancelled counts events removed from the queue without dispatching
	// (Timer/Ticker Stop). Before the indexed-timer design these lingered
	// as dead tombstone events and were dispatched as no-ops.
	cancelled uint64
	// moved counts in-place timer reschedules; each one is a tombstone the
	// old design would have leaked into the queue.
	moved uint64
	// peakPending is the high-water mark of logical pending events.
	peakPending int
	// laneNodes is the arena every Lane's queued items live in, each lane a
	// singly linked FIFO through next; laneFree heads the list of vacated
	// nodes. Both use index+1 links, so 0 means none.
	laneNodes []laneNode
	laneFree  int32
	// laneQueued counts lane items without a heap slot of their own: every
	// queued item except the head of each non-empty lane. Logical pending
	// = len(events) + inBatch + laneQueued.
	laneQueued int
	// wall accumulates wall-clock time spent inside Run. It never feeds
	// back into the simulation, so determinism is preserved.
	wall time.Duration
}

// Stats is a snapshot of the engine's counters. All counters are maintained
// on the hot event loop at the cost of one integer compare per Schedule and
// two wall-clock reads per Run call, so snapshotting is always cheap and
// safe.
type Stats struct {
	// EventsDispatched is the number of events popped and executed.
	EventsDispatched uint64
	// EventsScheduled is the number of events ever pushed into the queue.
	// The invariant EventsDispatched == EventsScheduled - EventsCancelled -
	// uint64(Pending) holds at all times: events leave the queue either by
	// dispatching or by being cancelled in place.
	EventsScheduled uint64
	// EventsCancelled counts events removed from the queue without being
	// dispatched (Timer.Stop / Ticker.Stop on an armed entry). The old
	// heap left these behind as dead no-op events.
	EventsCancelled uint64
	// TimerMoves counts in-place reschedules of armed timers and tickers
	// (Timer.Reset on an armed timer). Each one is a dead event the
	// tombstone design would have queued and dispatched for nothing.
	TimerMoves uint64
	// Pending is the number of events still waiting in the queue, including
	// any drained into the in-progress dispatch batch but not yet run.
	Pending int
	// PeakPending is the high-water mark of the event queue depth, a proxy
	// for the simulation's working-set size.
	PeakPending int
	// SimTime is the current virtual clock.
	SimTime Time
	// WallTime is the cumulative wall-clock time spent inside Run.
	WallTime time.Duration
}

// Speedup returns simulated seconds advanced per wall-clock second spent in
// Run — the figure that tells you how much faster than real time the
// simulation executes. Zero if no wall time has been recorded yet.
func (s Stats) Speedup() float64 {
	if s.WallTime <= 0 {
		return 0
	}
	return s.SimTime.Seconds() / s.WallTime.Seconds()
}

// EventsPerSecond returns dispatched events per wall-clock second, or zero
// if no wall time has been recorded yet.
func (s Stats) EventsPerSecond() float64 {
	if s.WallTime <= 0 {
		return 0
	}
	return float64(s.EventsDispatched) / s.WallTime.Seconds()
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	return Stats{
		EventsDispatched: e.processed,
		EventsScheduled:  e.scheduled,
		EventsCancelled:  e.cancelled,
		TimerMoves:       e.moved,
		Pending:          e.Pending(),
		PeakPending:      e.peakPending,
		SimTime:          e.now,
		WallTime:         e.wall,
	}
}

// NewEngine returns an engine with its clock at zero and an RNG seeded with
// the given seed.
//
// The heap starts with room for heapInitCap events: one allocation where
// growing from empty would take seven.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: NewRNG(seed), events: make([]event, 0, heapInitCap)}
}

// heapInitCap is the event heap's initial capacity. With in-flight packets
// in lanes, a full paper run's heap stays below it.
const heapInitCap = 64

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random number generator.
func (e *Engine) Rand() *RNG { return e.rng }

// Processed reports how many events have been dispatched so far.
func (e *Engine) Processed() uint64 { return e.processed }

// SetBatchDispatch selects between the batched drain loop (the default) and
// the serial one-pop-per-event reference path. Both dispatch the same events
// in the same order with identical Stats; the toggle exists so differential
// tests can prove it.
func (e *Engine) SetBatchDispatch(enabled bool) { e.serial = !enabled }

// --- 4-ary min-heap ---
//
// Children of i live at 4i+1..4i+4; the parent of i is (i-1)/4. A 4-ary
// layout halves the tree depth versus binary, trading slightly wider
// sibling scans (which stay within one or two cache lines of event values)
// for fewer levels of sift work per push/pop.

func lessEv(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// down sifts the event at index i toward the leaves, moving a hole rather
// than swapping so each displaced event is copied once. The slice header and
// length are loaded once; the 4-child minimum scan is unrolled.
func (e *Engine) down(i int) {
	evs := e.events
	n := len(evs)
	ev := evs[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		if c+1 < n && lessEv(&evs[c+1], &evs[m]) {
			m = c + 1
		}
		if c+2 < n && lessEv(&evs[c+2], &evs[m]) {
			m = c + 2
		}
		if c+3 < n && lessEv(&evs[c+3], &evs[m]) {
			m = c + 3
		}
		if !lessEv(&evs[m], &ev) {
			break
		}
		evs[i] = evs[m]
		if ent := evs[i].ent; ent != nil {
			ent.pos = i
		}
		i = m
	}
	evs[i] = ev
	if ent := ev.ent; ent != nil {
		ent.pos = i
	}
}

// up sifts the event at index i toward the root.
func (e *Engine) up(i int) {
	evs := e.events
	ev := evs[i]
	for i > 0 {
		p := int(uint(i-1) >> 2)
		if !lessEv(&ev, &evs[p]) {
			break
		}
		evs[i] = evs[p]
		if ent := evs[i].ent; ent != nil {
			ent.pos = i
		}
		i = p
	}
	evs[i] = ev
	if ent := ev.ent; ent != nil {
		ent.pos = i
	}
}

// push appends ev, restores heap order with the sift fused in (the appended
// value stays in a register until its final slot is known), and maintains
// the scheduled counter and pending high-water mark.
func (e *Engine) push(ev event) {
	e.pushNoCount(ev)
	e.countScheduled()
}

// countScheduled records one newly scheduled event (heap or lane) and
// updates the pending high-water mark.
func (e *Engine) countScheduled() {
	e.scheduled++
	if n := e.Pending(); n > e.peakPending {
		e.peakPending = n
	}
}

// pushNoCount inserts ev without touching the scheduled counter or the peak
// watermark. It is the raw insert under push, and is used directly when an
// event re-enters the heap without being newly scheduled: a timer move out
// of the dispatch batch, or restoring undispatched batch events on Stop —
// cases where logical pending does not grow.
func (e *Engine) pushNoCount(ev event) {
	// Grow by one slot without writing ev there: ev is stored once, at its
	// final position.
	i := len(e.events)
	if i == cap(e.events) {
		e.events = append(e.events, event{})
	} else {
		e.events = e.events[:i+1]
	}
	evs := e.events
	for i > 0 {
		p := int(uint(i-1) >> 2)
		if !lessEv(&ev, &evs[p]) {
			break
		}
		evs[i] = evs[p]
		if ent := evs[i].ent; ent != nil {
			ent.pos = i
		}
		i = p
	}
	// Field by field: ev arrives in registers and is spilled word by word,
	// and a whole-struct copy would reload it in 16-byte chunks, stalling
	// store-to-load forwarding.
	slot := &evs[i]
	slot.at, slot.seq, slot.call, slot.arg, slot.ent = ev.at, ev.seq, ev.call, ev.arg, ev.ent
	if ent := ev.ent; ent != nil {
		ent.pos = i
	}
}

// popInto removes the earliest event into *dst. The vacated tail slot is
// zeroed so the dispatched closure, call argument, and entry pointer do not
// pin garbage from the backing array. The caller is responsible for the
// popped entry's pos (disarmed vs batch-slot encoding).
//
// A lane slot at the root hands out the lane's head item as a plain call
// event. If the lane has a next item, the same slot is re-keyed to it in
// place and sifted down, so that item is back in the heap before the
// caller looks at the root again — the state the all-heap schedule would
// be in after popping the head.
func (e *Engine) popInto(dst *event) {
	evs := e.events
	if evs[0].call == nil && evs[0].ent == nil {
		e.popLane(dst)
		return
	}
	// Field by field, for the same reason as the final store in
	// pushNoCount: the root may have just been written word by word.
	root := &evs[0]
	dst.at, dst.seq, dst.call, dst.arg, dst.ent = root.at, root.seq, root.call, root.arg, root.ent
	n := len(evs) - 1
	last := evs[n]
	evs[n] = event{}
	e.events = evs[:n]
	if n > 0 {
		evs[0] = last
		if ent := last.ent; ent != nil {
			ent.pos = 0
		}
		e.down(0)
	}
}

// popLane hands out the head item of the lane whose slot is at the root.
// The slot stays, re-keyed to the lane's next item and sifted down, unless
// the lane is now empty. It is popInto's lane branch, kept out of line so
// the common path stays free of register spills.
func (e *Engine) popLane(dst *event) {
	root := &e.events[0]
	l := root.arg.(*Lane)
	h := l.head
	nd := &e.laneNodes[h-1]
	// Field by field: a composite literal is built on the stack and
	// copied, which stalls store-to-load forwarding on this hot path.
	dst.at, dst.seq, dst.call, dst.arg, dst.ent = nd.at, nd.seq, l.fn, nd.arg, nil
	next := nd.next
	nd.arg = nil
	nd.next = e.laneFree
	e.laneFree = h
	l.head = next
	if next == 0 {
		l.tail = 0
		e.removeAt(0)
		return
	}
	nx := &e.laneNodes[next-1]
	root.at, root.seq = nx.at, nx.seq
	e.laneQueued--
	e.down(0)
}

// removeAt deletes the event at index i without dispatching it, zeroing the
// vacated slot.
func (e *Engine) removeAt(i int) {
	if ent := e.events[i].ent; ent != nil {
		ent.pos = -1
	}
	n := len(e.events) - 1
	if i == n {
		e.events[n] = event{}
		e.events = e.events[:n]
		return
	}
	moved := e.events[n]
	e.events[n] = event{}
	e.events = e.events[:n]
	e.events[i] = moved
	if ent := moved.ent; ent != nil {
		ent.pos = i
	}
	if i > 0 && lessEv(&e.events[i], &e.events[(i-1)/4]) {
		e.up(i)
	} else {
		e.down(i)
	}
}

// updateAt rekeys the event at index i and restores heap order.
func (e *Engine) updateAt(i int, at Time, seq uint64) {
	e.events[i].at = at
	e.events[i].seq = seq
	if i > 0 && lessEv(&e.events[i], &e.events[(i-1)/4]) {
		e.up(i)
	} else {
		e.down(i)
	}
}

// checkFuture panics on scheduling in the past: silently reordering time
// would corrupt every queue model downstream.
func (e *Engine) checkFuture(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
}

// Schedule runs fn after delay d. A negative delay is treated as zero.
// Events at equal times run in scheduling order.
func (e *Engine) Schedule(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.ScheduleAt(e.now.Add(d), fn)
}

// ScheduleAt runs fn at time t. Scheduling in the past is an error in the
// simulation logic and panics.
func (e *Engine) ScheduleAt(t Time, fn func()) {
	e.checkFuture(t)
	e.seq++
	e.push(event{at: t, seq: e.seq, call: runClosure, arg: fn})
}

// ScheduleCall runs fn(arg) after delay d (negative delays clamp to zero).
// Unlike Schedule, the callback and its argument travel inside the event
// record, so callers that reuse one prebuilt fn — per-packet delivery in
// the network elements — schedule without allocating a closure per event.
func (e *Engine) ScheduleCall(d time.Duration, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	e.ScheduleCallAt(e.now.Add(d), fn, arg)
}

// ScheduleCallAt runs fn(arg) at time t. See ScheduleCall.
func (e *Engine) ScheduleCallAt(t Time, fn func(any), arg any) {
	e.checkFuture(t)
	e.seq++
	e.push(event{at: t, seq: e.seq, call: fn, arg: arg})
}

// scheduleEntry arms (or re-arms) an indexed entry for time t. An entry
// already in the queue is rekeyed in place; one drained into the dispatch
// batch is pulled back into the heap (the stale batch slot is skipped);
// a disarmed one is pushed. Either way it receives a fresh sequence number,
// so a re-armed timer orders after events already scheduled for the same
// instant, exactly as a freshly scheduled event would.
func (e *Engine) scheduleEntry(ent *entry, t Time) {
	e.checkFuture(t)
	e.seq++
	if ent.pos >= 0 {
		e.moved++
		e.updateAt(ent.pos, t, e.seq)
		return
	}
	if ent.pos <= -2 {
		// Drained but not yet dispatched: this Reset supersedes the pending
		// firing, which in serial dispatch would have been an in-place heap
		// move. Re-enter the heap without counting a new schedule; logical
		// pending (heap + batch) is unchanged.
		e.moved++
		e.inBatch--
		e.pushNoCount(event{at: t, seq: e.seq, ent: ent})
		return
	}
	e.push(event{at: t, seq: e.seq, ent: ent})
}

// cancelEntry removes an armed entry from the queue — or invalidates its
// batch slot if it has been drained but not yet dispatched. Disarmed
// entries are a no-op.
func (e *Engine) cancelEntry(ent *entry) {
	if ent.pos >= 0 {
		e.cancelled++
		e.removeAt(ent.pos)
		return
	}
	if ent.pos <= -2 {
		e.cancelled++
		e.inBatch--
		ent.pos = -1
	}
}

// Stop halts the run loop after the current event finishes. It only affects
// the Run call in progress: the next Run resumes from the pending queue.
func (e *Engine) Stop() { e.stopped = true }

// Run dispatches events in time order until the queue is empty, Stop is
// called, or the clock would pass until. Events scheduled exactly at until
// are dispatched. It returns the final virtual time.
//
// Run drains all events sharing the head timestamp (up to batchCap per
// pass) into a fixed on-stack buffer and dispatches them in seq order
// without re-touching the heap root per event. A lone head event — the
// common case — takes a direct pop-and-dispatch fast path.
//
// Run clears any previous Stop before dispatching, so an engine stopped
// mid-run can be resumed simply by calling Run again.
func (e *Engine) Run(until Time) Time {
	if e.serial {
		return e.runSerial(until)
	}
	start := time.Now()
	e.stopped = false
	var batch [batchCap]event
	for len(e.events) > 0 && !e.stopped {
		t := e.events[0].at
		if t > until {
			break
		}
		e.now = t
		e.popInto(&batch[0])
		if len(e.events) == 0 || e.events[0].at != t {
			// Single event at this instant: dispatch without batch
			// bookkeeping. Identical to one serial loop iteration.
			ev := &batch[0]
			e.processed++
			if ent := ev.ent; ent != nil {
				ent.pos = -1
				ent.fire()
			} else {
				ev.call(ev.arg)
			}
			continue
		}
		if ent := batch[0].ent; ent != nil {
			ent.pos = -2
		}
		n := 1
		for {
			e.popInto(&batch[n])
			if ent := batch[n].ent; ent != nil {
				ent.pos = -2 - n
			}
			n++
			if n == batchCap || len(e.events) == 0 || e.events[0].at != t {
				break
			}
		}
		e.inBatch = n
		for i := 0; i < n; i++ {
			ev := &batch[i]
			if ent := ev.ent; ent != nil {
				if ent.pos != -2-i {
					// Cancelled or re-armed while waiting in the batch;
					// already accounted for there.
					continue
				}
				ent.pos = -1
				e.inBatch--
				e.processed++
				ent.fire()
			} else {
				e.inBatch--
				e.processed++
				ev.call(ev.arg)
			}
			if e.stopped {
				// Restore undispatched live batch events to the heap with
				// their original keys, as if they had never been drained.
				for j := i + 1; j < n; j++ {
					rv := &batch[j]
					if ent := rv.ent; ent != nil && ent.pos != -2-j {
						continue
					}
					e.inBatch--
					e.pushNoCount(*rv)
				}
				break
			}
		}
	}
	if e.now < until && !e.stopped {
		e.now = until
	}
	e.wall += time.Since(start)
	return e.now
}

// runSerial is the one-pop-per-event reference dispatch loop, selected by
// SetBatchDispatch(false). It must remain observably identical to the
// batched loop; the differential determinism tests compare the two.
func (e *Engine) runSerial(until Time) Time {
	start := time.Now()
	e.stopped = false
	var ev event
	for len(e.events) > 0 && !e.stopped {
		if e.events[0].at > until {
			break
		}
		e.popInto(&ev)
		e.now = ev.at
		e.processed++
		if ent := ev.ent; ent != nil {
			ent.pos = -1
			ent.fire()
		} else {
			ev.call(ev.arg)
		}
	}
	if e.now < until && !e.stopped {
		e.now = until
	}
	e.wall += time.Since(start)
	return e.now
}

// RunFor is shorthand for Run(Now().Add(d)).
func (e *Engine) RunFor(d time.Duration) Time { return e.Run(e.now.Add(d)) }

// Pending reports how many events are waiting to dispatch, including any
// drained into the in-progress dispatch batch but not yet run and every
// item queued in a lane.
func (e *Engine) Pending() int { return len(e.events) + e.inBatch + e.laneQueued }

// Timer is a cancellable, reschedulable single-shot timer bound to an engine.
// It is the building block for retransmission timeouts, delayed ACKs, and
// periodic application ticks.
//
// A Timer owns one indexed heap entry: Reset moves the armed entry in place
// and Stop removes it, so no call on a Timer ever strands a dead event in
// the queue or allocates after construction. Timers must not be copied once
// created.
type Timer struct {
	eng *Engine
	ent entry
}

// NewTimer returns a timer that calls fn when it fires. The timer starts
// disarmed.
func NewTimer(eng *Engine, fn func()) *Timer {
	t := &Timer{eng: eng}
	t.ent.pos = -1
	t.ent.fn = fn
	return t
}

// InitCall prepares a zero-value Timer in place to fire fn(arg), the
// value-embedding construction path: a struct that embeds a Timer by value
// and initialises it with a shared package-level fn and itself as arg arms
// and fires with no per-timer allocation at all (NewTimer costs the Timer
// box plus the callback's closure or method value). The timer starts
// disarmed. Like every Timer, it must not be copied once initialised.
func (t *Timer) InitCall(eng *Engine, fn func(any), arg any) {
	t.eng = eng
	t.ent.pos = -1
	t.ent.call = fn
	t.ent.arg = arg
}

// Reset (re)arms the timer to fire after d, cancelling any earlier deadline.
func (t *Timer) Reset(d time.Duration) {
	t.ResetAt(t.eng.now.Add(d))
}

// ResetAt (re)arms the timer to fire at the absolute time at.
func (t *Timer) ResetAt(at Time) {
	t.eng.scheduleEntry(&t.ent, at)
}

// Stop disarms the timer. It is safe to call on a disarmed timer.
func (t *Timer) Stop() { t.eng.cancelEntry(&t.ent) }

// Armed reports whether the timer is waiting to fire (queued or drained
// into the in-progress dispatch batch).
func (t *Timer) Armed() bool { return t.ent.pos != -1 }

// Ticker invokes fn every interval until stopped. The first tick fires one
// interval after Start (or immediately if startNow). Like Timer, a Ticker
// reuses one indexed heap entry for its whole life, so steady-state ticking
// performs no allocation. Tickers must not be copied once created.
type Ticker struct {
	eng      *Engine
	fn       func()
	interval time.Duration
	running  bool
	ent      entry
}

// NewTicker returns a stopped ticker with the given interval and callback.
func NewTicker(eng *Engine, interval time.Duration, fn func()) *Ticker {
	if interval <= 0 {
		panic("sim: ticker interval must be positive")
	}
	t := &Ticker{eng: eng, fn: fn, interval: interval}
	t.ent.pos = -1
	t.ent.fn = t.tick
	return t
}

// tick runs one tick and re-arms the entry, unless the callback stopped the
// ticker or re-armed it itself (e.g. via Start).
func (t *Ticker) tick() {
	if !t.running {
		return
	}
	t.fn()
	if t.running && t.ent.pos == -1 {
		t.eng.scheduleEntry(&t.ent, t.eng.now.Add(t.interval))
	}
}

// Start begins ticking. If startNow, the first tick is dispatched at the
// current time (still via the event queue, preserving ordering). Starting a
// running ticker re-arms its pending tick.
func (t *Ticker) Start(startNow bool) {
	t.running = true
	at := t.eng.now.Add(t.interval)
	if startNow {
		at = t.eng.now
	}
	t.eng.scheduleEntry(&t.ent, at)
}

// SetInterval changes the tick interval; takes effect from the next arm.
func (t *Ticker) SetInterval(d time.Duration) {
	if d <= 0 {
		panic("sim: ticker interval must be positive")
	}
	t.interval = d
}

// Interval returns the current tick interval.
func (t *Ticker) Interval() time.Duration { return t.interval }

// Stop halts the ticker. Safe to call repeatedly.
func (t *Ticker) Stop() {
	t.running = false
	t.eng.cancelEntry(&t.ent)
}

// Running reports whether the ticker is active.
func (t *Ticker) Running() bool { return t.running }
