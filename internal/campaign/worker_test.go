package campaign

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/runcache"
)

// idleFixture is a tiny campaign whose shard 0 is held by a live peer, with
// a worker over a warm cache (so executing a shard costs a cache read, not
// a simulation) running in the background. Test cleanup cancels the worker
// and waits for it to exit.
type idleFixture struct {
	dir    string
	m      *Manifest
	peer   *runcache.Claim
	w      *Worker
	cancel context.CancelFunc
	done   chan runResult
}

type runResult struct {
	n   int
	err error
	at  time.Time
}

func startIdleFixture(t *testing.T, poll time.Duration) *idleFixture {
	t.Helper()
	cache := openCache(t)
	runTiny(t, t.TempDir(), cache) // warm every cell
	dir := t.TempDir()
	m, sp, err := Init(dir, parseSpec(t, tinySpecText), false)
	if err != nil {
		t.Fatal(err)
	}
	peer, ok, err := runcache.AcquireClaim(ClaimPath(dir, 0), "peer", time.Minute)
	if err != nil || !ok {
		t.Fatalf("seed claim: ok=%v err=%v", ok, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &idleFixture{
		dir: dir, m: m, peer: peer, cancel: cancel, done: make(chan runResult, 1),
		w: &Worker{Dir: dir, Manifest: m, Spec: sp, Cache: cache, Owner: "alive", Poll: poll},
	}
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		n, err := f.w.Run(ctx)
		f.done <- runResult{n, err, time.Now()}
	}()
	t.Cleanup(func() {
		cancel()
		<-exited
	})
	return f
}

// waitOthersDone blocks until every shard but the peer's shard 0 is done.
func (f *idleFixture) waitOthersDone(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, n := Status(f.dir, f.m); n == f.m.Shards-1 {
			return
		}
		select {
		case r := <-f.done:
			t.Fatalf("Run returned early: n=%d err=%v", r.n, r.err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never finished the unclaimed shards")
		}
		time.Sleep(time.Millisecond)
	}
}

// result waits for Run to return, failing if that takes more than bound
// past since.
func (f *idleFixture) result(t *testing.T, since time.Time, bound time.Duration) runResult {
	t.Helper()
	select {
	case r := <-f.done:
		if lag := r.at.Sub(since); lag > bound {
			t.Fatalf("Run returned %v after the wake-up event, want <= %v", lag, bound)
		}
		return r
	case <-time.After(bound + 15*time.Second):
		t.Fatalf("Run still waiting %v after the wake-up event", bound+15*time.Second)
	}
	return runResult{}
}

// TestWorkerWakesPromptlyAfterPeer pins the idle wait's pacing: a worker
// whose last missing shard is held by a live peer must pick it up soon
// after the peer lets go, however long its Poll is. A fixed Poll-length
// sleep fails this with a 10 s Poll.
func TestWorkerWakesPromptlyAfterPeer(t *testing.T) {
	const bound = 2 * time.Second
	t.Run("release", func(t *testing.T) {
		f := startIdleFixture(t, 10*time.Second)
		f.waitOthersDone(t)
		time.Sleep(50 * time.Millisecond) // let the wait grow past its first steps
		released := time.Now()
		if err := f.peer.Release(); err != nil {
			t.Fatal(err)
		}
		r := f.result(t, released, bound)
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.n != f.m.Shards || !ShardDone(f.dir, 0) {
			t.Fatalf("worker ran %d of %d shards (shard 0 done: %v)", r.n, f.m.Shards, ShardDone(f.dir, 0))
		}
		if waits, idle := f.w.IdleStats(); waits == 0 || idle <= 0 {
			t.Fatalf("IdleStats = %d waits, %v; want the waits on the peer counted", waits, idle)
		}
	})
	t.Run("cancel", func(t *testing.T) {
		f := startIdleFixture(t, 10*time.Second)
		f.waitOthersDone(t)
		time.Sleep(50 * time.Millisecond)
		cancelled := time.Now()
		f.cancel()
		r := f.result(t, cancelled, bound)
		if !errors.Is(r.err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", r.err)
		}
		if ShardDone(f.dir, 0) {
			t.Fatal("cancelled worker executed the peer's shard")
		}
	})
}

// TestWorkerIdleWaitsCappedAtPoll holds a live peer's claim for a fixed
// span with a 2 ms Poll: waits capped at Poll number in the dozens, while
// waits doubling without a cap would number about eight. The accounted
// idle time cannot exceed the span the worker was kept waiting.
func TestWorkerIdleWaitsCappedAtPoll(t *testing.T) {
	f := startIdleFixture(t, 2*time.Millisecond)
	f.waitOthersDone(t)
	held := time.Now()
	time.Sleep(200 * time.Millisecond)
	if err := f.peer.Release(); err != nil {
		t.Fatal(err)
	}
	r := f.result(t, held, 30*time.Second)
	if r.err != nil {
		t.Fatal(r.err)
	}
	waits, idle := f.w.IdleStats()
	if waits < 20 {
		t.Fatalf("%d idle waits over a 200 ms hold with a 2 ms Poll; want >= 20", waits)
	}
	if idle <= 0 || idle > r.at.Sub(held)+100*time.Millisecond {
		t.Fatalf("idle %v over a hold of %v", idle, r.at.Sub(held))
	}
}
