package sim

import (
	"cmp"
	"fmt"
	"slices"
)

// laneNode is one item queued in a Lane, a node of the engine's lane arena.
type laneNode struct {
	at   Time
	seq  uint64
	arg  any
	next int32 // index+1 of the lane's following node; 0 at the tail
}

// laneInitCap is the lane arena's first capacity; it doubles from there.
const laneInitCap = 64

// Lane is an order-preserving FIFO of deliveries, each one a call of the
// lane's shared fn on an item's argument. It is for producers whose output
// times never decrease — a link's serialisation clock, a delay line that
// clamps jitter to keep order — and keeps their items out of the event
// heap: the heap holds one slot per non-empty lane, keyed by the lane's
// head.
//
// Dispatch order is exactly what ScheduleCallAt would give. An item takes
// the engine's next sequence number when it is pushed, just as a scheduled
// event does, so lane items and heap events form one (at, seq) order. Since
// a lane's items are pushed in that order, its head is its earliest item,
// and the engine re-keys the lane's slot to the next item the moment it
// hands out the head (see popLane). Pending, PeakPending and
// EventsScheduled count lane items like any other event.
//
// Items live in an arena the engine owns, so queueing allocates nothing
// once the arena has grown to the run's working set. A Lane is embedded
// by value and prepared with Init; it must not be copied afterwards.
type Lane struct {
	eng        *Engine
	fn         func(any)
	head, tail int32 // arena index+1; 0 when empty
	// staged counts items queued by Stage and not yet committed; they
	// occupy the arena from index stageFrom on.
	staged    int32
	stageFrom int32
}

// Init prepares a zero-value Lane in place to deliver fn(arg) for every
// item pushed onto it. Like Timer.InitCall, a shared fn and a
// pointer-shaped arg keep every push allocation-free.
func (l *Lane) Init(eng *Engine, fn func(any)) {
	l.eng = eng
	l.fn = fn
}

// Push queues fn(arg) for time at. at must not be before the current time
// (as for ScheduleCallAt) nor before the lane's last queued item: a lane
// never reorders, so pushing out of order is a bug in the producer and
// panics.
func (l *Lane) Push(at Time, arg any) {
	e := l.eng
	e.checkFuture(at)
	if l.staged != 0 {
		panic("sim: lane push with staged items not committed")
	}
	if l.tail != 0 {
		if last := e.laneNodes[l.tail-1].at; at < last {
			panic(fmt.Sprintf("sim: lane push at %v before the lane's last item at %v", at, last))
		}
	}
	e.seq++
	i := e.newLaneNode()
	nd := &e.laneNodes[i-1]
	nd.at, nd.seq, nd.arg = at, e.seq, arg
	if l.tail == 0 {
		l.head, l.tail = i, i
		e.pushNoCount(event{at: at, seq: e.seq, arg: l})
	} else {
		e.laneNodes[l.tail-1].next = i
		l.tail = i
		e.laneQueued++
	}
	e.countScheduled()
}

// Stage queues fn(arg) for time at on an empty lane, in any time order:
// the way to load a schedule drawn up front, such as a flow population's
// arrivals and departures. The item takes its sequence number now, so it
// ties with other events at its instant exactly as a ScheduleCallAt call
// made here would. Commit must follow before the engine runs, with no
// other lane queueing an item in between.
func (l *Lane) Stage(at Time, arg any) {
	e := l.eng
	e.checkFuture(at)
	if l.staged == 0 {
		if l.head != 0 {
			panic("sim: lane stage on a non-empty lane")
		}
		l.stageFrom = int32(len(e.laneNodes))
	}
	e.seq++
	i := e.appendLaneNode()
	nd := &e.laneNodes[i-1]
	nd.at, nd.seq, nd.arg = at, e.seq, arg
	l.staged++
	e.laneQueued++
	e.countScheduled()
}

// Commit sorts the staged items by (at, seq) and links them into the lane.
// It is a no-op when nothing is staged.
func (l *Lane) Commit() {
	if l.staged == 0 {
		return
	}
	e := l.eng
	from := int(l.stageFrom)
	nodes := e.laneNodes[from:]
	if len(nodes) != int(l.staged) {
		panic("sim: lane arena grew while a lane was staging")
	}
	slices.SortFunc(nodes, func(a, b laneNode) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	e.checkFuture(nodes[0].at)
	for i := range nodes {
		nodes[i].next = int32(from + i + 2)
	}
	nodes[len(nodes)-1].next = 0
	l.head, l.tail = int32(from+1), int32(from+len(nodes))
	l.staged = 0
	e.laneQueued--
	e.pushNoCount(event{at: nodes[0].at, seq: nodes[0].seq, arg: l})
}

// newLaneNode returns the index+1 of a free arena node, reusing a vacated
// one when there is any.
func (e *Engine) newLaneNode() int32 {
	if i := e.laneFree; i != 0 {
		nd := &e.laneNodes[i-1]
		e.laneFree = nd.next
		nd.next = 0
		return i
	}
	return e.appendLaneNode()
}

// appendLaneNode extends the arena by one node and returns its index+1.
// The arena doubles when full, so a run's lanes cost a handful of
// allocations however many items they carry.
func (e *Engine) appendLaneNode() int32 {
	n := len(e.laneNodes)
	if n == cap(e.laneNodes) {
		grown := make([]laneNode, n, max(laneInitCap, 2*n))
		copy(grown, e.laneNodes)
		e.laneNodes = grown
	}
	e.laneNodes = e.laneNodes[:n+1]
	return int32(n + 1)
}
