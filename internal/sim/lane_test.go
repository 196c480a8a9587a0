package sim

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// laneFire is one dispatch observed by a lane program, with the engine's
// counters as the callback saw them.
type laneFire struct {
	at    Time
	id    int
	stats Stats
}

// laneProgramResult is everything a lane program observes: every dispatch,
// the counters after every Run call, and how often it hit the cases the
// differential test exists for.
type laneProgramResult struct {
	fires     []laneFire
	runs      []Stats
	stopsMid  int // Stop called with drained events still in the batch
	maxCohort int // most dispatches sharing one timestamp
}

// statsNoWall is e.Stats without the wall-clock field, the part of Stats
// that must match exactly between two programs.
func statsNoWall(e *Engine) Stats {
	s := e.Stats()
	s.WallTime = 0
	return s
}

// runLaneProgram executes one randomized program against a fresh engine:
// pushes to several lanes (one loaded up front with Stage), ScheduleCallAt
// events, Timer Reset/Stop, same-instant cohorts larger than batchCap, and
// Stop from inside callbacks with the run resumed afterwards. With
// useLanes false, every lane push and stage becomes a ScheduleCallAt of
// the same callback at the same time — the all-heap program the lanes must
// be indistinguishable from. Callbacks draw their actions from rng in
// dispatch order, so both programs stay in step only while dispatch order
// agrees.
func runLaneProgram(seed int64, useLanes, batched bool) laneProgramResult {
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine(1)
	e.SetBatchDispatch(batched)
	var res laneProgramResult

	const nLanes = 4 // lane nLanes-1 is loaded by Stage
	var lanes [nLanes]Lane
	var lastAt [nLanes]Time
	budget := 4000 // pushes left; bounds the program
	nextID := 0
	var act func()
	deliver := func(a any) {
		res.fires = append(res.fires, laneFire{e.Now(), *a.(*int), statsNoWall(e)})
		act()
	}
	for k := range lanes {
		lanes[k].Init(e, deliver)
	}
	newArg := func() *int { nextID++; id := nextID; return &id }
	pushLane := func(k int, at Time) {
		budget--
		if at < lastAt[k] {
			at = lastAt[k]
		}
		lastAt[k] = at
		if useLanes {
			lanes[k].Push(at, newArg())
		} else {
			e.ScheduleCallAt(at, deliver, newArg())
		}
	}
	pushHeap := func(at Time) {
		budget--
		e.ScheduleCallAt(at, deliver, newArg())
	}
	var timers [3]*Timer
	for k := range timers {
		id := -1 - k
		timers[k] = NewTimer(e, func() {
			res.fires = append(res.fires, laneFire{e.Now(), id, statsNoWall(e)})
			act()
		})
	}
	delta := func() time.Duration {
		if rng.Intn(3) == 0 {
			return 0 // same instant: extends the cohort being drained
		}
		return time.Duration(1+rng.Intn(5)) * time.Millisecond
	}
	act = func() {
		if budget <= 0 {
			return
		}
		now := e.Now()
		switch rng.Intn(12) {
		case 0, 1, 2, 3:
			pushLane(rng.Intn(nLanes-1), now.Add(delta()))
		case 4, 5:
			pushHeap(now.Add(delta()))
		case 6:
			timers[rng.Intn(len(timers))].ResetAt(now.Add(delta()))
		case 7:
			timers[rng.Intn(len(timers))].Stop()
		case 8:
			if e.inBatch > 0 {
				res.stopsMid++
			}
			e.Stop()
		case 9:
			if rng.Intn(8) == 0 {
				// A cohort larger than batchCap at one instant, spread
				// over the lanes and the heap.
				at := now.Add(delta())
				for i := 0; i < batchCap+20; i++ {
					if k := rng.Intn(nLanes); k < nLanes-1 && lastAt[k] <= at {
						pushLane(k, at)
					} else {
						pushHeap(at)
					}
				}
			}
		}
	}

	// The staged lane: a schedule drawn up front in random time order,
	// interleaved with ordinary scheduling as a population build is.
	staged := nLanes - 1
	for i := 0; i < 300; i++ {
		at := At(time.Duration(rng.Intn(50)) * time.Millisecond)
		switch rng.Intn(3) {
		case 0:
			pushHeap(at)
		default:
			if useLanes {
				lanes[staged].Stage(at, newArg())
			} else {
				e.ScheduleCallAt(at, deliver, newArg())
			}
		}
	}
	lanes[staged].Commit()
	for i := 0; i < 100; i++ {
		pushLane(rng.Intn(nLanes-1), At(time.Duration(rng.Intn(20))*time.Millisecond))
	}

	for guard := 0; e.Pending() > 0; guard++ {
		if guard > 100000 {
			panic("lane program did not drain")
		}
		until := e.Now().Add(time.Duration(rng.Intn(20)) * time.Millisecond)
		if rng.Intn(10) == 0 {
			until = End
		}
		e.Run(until)
		res.runs = append(res.runs, statsNoWall(e))
	}
	cohort := 0
	for i := range res.fires {
		if i > 0 && res.fires[i].at == res.fires[i-1].at {
			cohort++
		} else {
			cohort = 1
		}
		res.maxCohort = max(res.maxCohort, cohort)
	}
	return res
}

// TestLaneMatchesAllHeapSchedule is the differential property behind the
// lanes: every lane push replaced by ScheduleCallAt must give the same
// dispatch order and the same Stats, inside callbacks and after every Run
// call, under both batched and serial dispatch.
func TestLaneMatchesAllHeapSchedule(t *testing.T) {
	stopsMid, bigCohorts := 0, 0
	for seed := int64(1); seed <= 30; seed++ {
		ref := runLaneProgram(seed, false, false)
		for _, mode := range []struct {
			name              string
			useLanes, batched bool
		}{
			{"heap/batched", false, true},
			{"lanes/batched", true, true},
			{"lanes/serial", true, false},
		} {
			got := runLaneProgram(seed, mode.useLanes, mode.batched)
			if len(got.fires) != len(ref.fires) {
				t.Fatalf("seed %d %s: %d dispatches, all-heap serial %d",
					seed, mode.name, len(got.fires), len(ref.fires))
			}
			for i := range ref.fires {
				if got.fires[i] != ref.fires[i] {
					t.Fatalf("seed %d %s: dispatch %d = %+v, all-heap serial %+v",
						seed, mode.name, i, got.fires[i], ref.fires[i])
				}
			}
			if !reflect.DeepEqual(got.runs, ref.runs) {
				t.Fatalf("seed %d %s: Stats after each Run differ:\n got %+v\nwant %+v",
					seed, mode.name, got.runs, ref.runs)
			}
			if mode.batched {
				stopsMid += got.stopsMid
			}
		}
		if ref.maxCohort > batchCap {
			bigCohorts++
		}
	}
	// The property is only as strong as the cases it reaches.
	if stopsMid == 0 || bigCohorts == 0 {
		t.Fatalf("programs never hit the hard cases: %d mid-batch stops, %d seeds with a cohort > batchCap",
			stopsMid, bigCohorts)
	}
}

// TestLanePushOutOfOrderPanics pins the lane contract: a push earlier than
// the lane's last item (or than the current time) is a producer bug.
func TestLanePushOutOfOrderPanics(t *testing.T) {
	mustPanic := func(name, want string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: no panic", name)
			}
			if msg, _ := r.(string); !strings.Contains(msg, want) {
				t.Fatalf("%s: panic %v, want it to mention %q", name, r, want)
			}
		}()
		fn()
	}

	e := NewEngine(1)
	var l Lane
	l.Init(e, func(any) {})
	l.Push(At(5*time.Millisecond), nil)
	l.Push(At(5*time.Millisecond), nil) // equal times are in order
	mustPanic("push before tail", "before the lane's last item", func() {
		l.Push(At(3*time.Millisecond), nil)
	})
	e.Run(At(4 * time.Millisecond))
	mustPanic("push into the past", "before now", func() {
		l.Push(At(time.Millisecond), nil)
	})
	e.Run(End)

	// Once drained, a lane orders only against the clock again.
	l.Push(e.Now(), nil)
	if e.Pending() != 1 {
		t.Fatalf("pending %d after push onto a drained lane, want 1", e.Pending())
	}
}

// TestLaneDispatchZeroesArenaSlots mirrors TestPoppedSlotsZeroed for the
// lane arena: a delivered item's argument must not stay reachable from the
// engine.
func TestLaneDispatchZeroesArenaSlots(t *testing.T) {
	e := NewEngine(1)
	var l Lane
	l.Init(e, func(any) {})
	big := make([]byte, 1<<10)
	for i := 0; i < 16; i++ {
		l.Push(At(time.Duration(i)*time.Millisecond), &big)
	}
	e.Run(End)
	for i, nd := range e.laneNodes {
		if nd.arg != nil {
			t.Fatalf("arena node %d still holds its argument", i)
		}
	}
}
