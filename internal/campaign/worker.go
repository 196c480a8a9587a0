package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/runcache"
)

// Worker default knobs; minIdleWait is the first idle wait (see Worker.Poll).
const (
	DefaultLease = time.Minute
	DefaultPoll  = 200 * time.Millisecond
	minIdleWait  = time.Millisecond
)

// Worker executes campaign shards: it claims a shard's lease file, runs the
// shard's cells sequentially through the shared run cache, publishes the
// shard's runlog and telemetry snapshot atomically, releases the claim, and
// moves on until no unfinished shard remains. Several Workers — in-process
// or in separate OS processes — cooperate safely over one campaign
// directory; see the package comment for the crash-recovery story.
type Worker struct {
	// Dir is the campaign directory; Manifest/Spec its parsed root state.
	Dir      string
	Manifest *Manifest
	Spec     *Spec
	// Cache is the shared run cache (nil runs uncached, which still works
	// but makes shard re-execution after a crash start from scratch).
	Cache *runcache.Cache
	// Owner names this worker in claim files; must be unique per worker.
	Owner string
	// Lease is the claim TTL; the worker renews at half-life while a shard
	// executes. Poll is the longest idle wait between scans when every
	// unfinished shard is claimed by someone else: idle waits start at
	// 1 ms, double with each scan that executes nothing, and reset to 1 ms
	// when the worker executes a shard. A worker waiting on a live peer's
	// warm shard sees it published within milliseconds, and a dead peer's
	// shard is stolen within one Poll of its lease expiring.
	Lease time.Duration
	Poll  time.Duration
	// IgnoreClaims skips claim acquisition entirely, so this worker races
	// everyone on every shard — a test hook for exercising the cache and
	// publish paths under deliberate cross-process contention.
	IgnoreClaims bool
	// Log, when non-nil, receives one line per shard event.
	Log io.Writer

	// Idle accounting, read with IdleStats after Run.
	idleWaits int
	idleTime  time.Duration
}

// IdleStats reports how many idle waits Run made and their total duration.
func (w *Worker) IdleStats() (waits int, total time.Duration) {
	return w.idleWaits, w.idleTime
}

func (w *Worker) logf(format string, args ...any) {
	if w.Log != nil {
		fmt.Fprintf(w.Log, format+"\n", args...)
	}
}

// Run executes shards until none are missing, returning how many this
// worker published. It returns early (with the context's error) when ctx is
// cancelled; the in-flight shard is abandoned unpublished and its lease
// left to expire, exactly like a crash.
func (w *Worker) Run(ctx context.Context) (executed int, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	lease, poll := w.Lease, w.Poll
	if lease <= 0 {
		lease = DefaultLease
	}
	if poll <= 0 {
		poll = DefaultPoll
	}
	cells := w.Spec.Cells()
	n := w.Spec.ShardCount()
	// Start the scan at a per-owner offset so a fleet of workers spreads
	// over the shards instead of stampeding shard 0.
	offset := 0
	for _, c := range w.Owner {
		offset = (offset*31 + int(c)) % max(n, 1)
	}
	first := min(minIdleWait, poll)
	wait := first
	for {
		missing := 0
		for s := 0; s < n; s++ {
			if err := ctx.Err(); err != nil {
				return executed, err
			}
			i := (s + offset) % n
			if ShardDone(w.Dir, i) {
				continue
			}
			missing++
			var claim *runcache.Claim
			if !w.IgnoreClaims {
				c, ok, err := runcache.AcquireClaim(ClaimPath(w.Dir, i), w.Owner, lease)
				if err != nil {
					return executed, err
				}
				if !ok {
					continue // validly held by a live worker
				}
				claim = c
				// The previous holder may have published between our scan
				// and the steal; re-check before re-executing.
				if ShardDone(w.Dir, i) {
					_ = claim.Release()
					missing--
					continue
				}
			}
			start, end := w.Spec.ShardRange(i)
			w.logf("worker %s: shard %d (%d cells)", w.Owner, i, end-start)
			err := w.runShard(ctx, i, cells[start:end], claim, lease)
			if claim != nil {
				_ = claim.Release()
			}
			if err != nil {
				return executed, err
			}
			executed++
			missing--
			wait = first
		}
		if missing == 0 {
			// Every shard either done or (transiently) claimed; rescan once
			// more to distinguish. All done → exit.
			if _, done := Status(w.Dir, w.Manifest); done == n {
				return executed, nil
			}
		}
		if err := w.idle(ctx, wait); err != nil {
			return executed, err
		}
		wait = min(2*wait, poll)
	}
}

// idle sleeps for d, or until ctx is cancelled, and accounts the wait.
func (w *Worker) idle(ctx context.Context, d time.Duration) error {
	start := time.Now()
	t := time.NewTimer(d)
	defer t.Stop()
	var err error
	select {
	case <-ctx.Done():
		err = ctx.Err()
	case <-t.C:
	}
	w.idleWaits++
	w.idleTime += time.Since(start)
	return err
}

// runShard executes one shard's cells in order and publishes its outputs:
// first the runlog, then the snapshot (the done marker), both via
// temp+rename so a crash mid-publish leaves the shard cleanly unfinished.
func (w *Worker) runShard(ctx context.Context, shard int, cells []Cell, claim *runcache.Claim, lease time.Duration) error {
	agg := obs.NewAggregator()
	var before runcache.Stats
	if w.Cache != nil {
		before = w.Cache.Stats()
	}
	var runlog bytes.Buffer
	agg.SweepStart(len(cells))
	renewAt := time.Now().Add(lease / 2)
	for _, cell := range cells {
		if err := ctx.Err(); err != nil {
			return err
		}
		if claim != nil && time.Now().After(renewAt) {
			if err := claim.Renew(lease); err != nil {
				return err
			}
			renewAt = time.Now().Add(lease / 2)
		}
		runStart := time.Now()
		res, hit := experiment.RunCached(w.Cache, cell.RunConfig(w.Spec))
		rec := res.Record(cell.Iter)
		rec.Cached = hit
		agg.RunDone(obs.Update{
			Cond: rec.Cond, Seed: rec.Seed, Iteration: rec.Iteration,
			RunWall: time.Since(runStart), Record: &rec,
		})
		line, err := json.Marshal(canonicalRecord(rec))
		if err != nil {
			return fmt.Errorf("campaign: marshal record: %w", err)
		}
		runlog.Write(line)
		runlog.WriteByte('\n')
	}
	agg.SweepDone(false, 0)
	snap := agg.Snapshot()
	// The health point is a live-process concern and the cache stats are
	// scoped to this shard's slice of this process's counters.
	snap.Health = nil
	if w.Cache != nil {
		delta := w.Cache.Stats().Sub(before)
		snap.Cache = &delta
	}
	if err := atomicWrite(RunlogPath(w.Dir, shard), runlog.Bytes()); err != nil {
		return err
	}
	data, err := json.MarshalIndent(snap, "", " ")
	if err != nil {
		return fmt.Errorf("campaign: marshal snapshot: %w", err)
	}
	return atomicWrite(SnapPath(w.Dir, shard), append(data, '\n'))
}

// canonicalRecord scrubs the wall-clock execution fields from a record so
// shard runlogs are a pure function of (spec, shard): Cached depends on
// which process ran first, and the engine wall fields on host load, so both
// are zeroed. Everything else — metrics, counters, seeds — is deterministic
// and survives verbatim.
func canonicalRecord(r obs.Record) obs.Record {
	r.Cached = false
	r.Engine.WallSeconds = 0
	r.Engine.Speedup = 0
	r.Engine.EventsPerSecond = 0
	return r
}
