// Command gscampaign coordinates sharded measurement campaigns. It expands
// a campaign spec (a grid over the paper's axes, or Monte-Carlo draws from
// empirical rate/RTT/queue distributions) into a deterministic cell list,
// partitions it into shards, and executes the shards through the shared
// content-addressed run cache — either entirely in-process or across a
// fleet of worker processes that claim shards via lease files in the
// campaign directory.
//
// The coordinator spawns the workers (this binary re-executing itself with
// -worker), sweeps up anything they leave behind, and merges the per-shard
// telemetry snapshots in shard order, so the merged deterministic JSON is
// byte-identical however many workers ran and however many of them crashed.
// A SIGKILL'd worker loses at most the uncached runs of its in-flight
// shard; -resume re-expands the manifest and executes only missing shards.
//
// Usage:
//
//	gscampaign -spec paper.campaign -dir camp -workers 4
//	gscampaign -dir camp -status
//	gscampaign -dir camp -resume
//	gsreport -campaign camp
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/figures"
	"repro/internal/runcache"
)

func main() {
	var (
		specPath = flag.String("spec", "", "campaign spec file; omit with -resume/-status/-worker to adopt the directory's campaign")
		dir      = flag.String("dir", "", "campaign directory: manifest, shard claims/outputs, merged artefacts (required)")
		cacheDir = flag.String("cache", "", "shared run cache directory (default <dir>/cache); all workers must use the same one")
		workers  = flag.Int("workers", 0, "worker processes to spawn; 0 executes every shard in-process")
		lease    = flag.Duration("lease", campaign.DefaultLease, "shard claim lease; a crashed worker's shard is re-claimed after this expires")
		poll     = flag.Duration("poll", campaign.DefaultPoll, "longest idle wait between shard scans when all unfinished shards are claimed; waits start at 1 ms and double")
		resume   = flag.Bool("resume", false, "resume an initialised campaign directory, executing only missing shards")
		status   = flag.Bool("status", false, "print shard completion for the campaign directory and exit")
		worker   = flag.Bool("worker", false, "run as a single worker over an initialised directory (what -workers children execute)")
		owner    = flag.String("owner", "", "worker claim owner name (default w-<pid>)")
		ignore   = flag.Bool("ignore-claims", false, "skip claim files so this worker races others on every shard (cache-contention testing)")
		quiet    = flag.Bool("quiet", false, "suppress per-shard progress lines")
	)
	flag.Parse()

	if *dir == "" {
		fmt.Fprintln(os.Stderr, "gscampaign: -dir is required")
		os.Exit(2)
	}
	if err := run(*specPath, *dir, *cacheDir, *workers, *lease, *poll, *resume, *status, *worker, *owner, *ignore, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "gscampaign:", err)
		os.Exit(1)
	}
}

func run(specPath, dir, cacheDir string, workers int, lease, poll time.Duration, resume, status, worker bool, owner string, ignore, quiet bool) error {
	if status {
		return printStatus(dir)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if cacheDir == "" {
		cacheDir = filepath.Join(dir, "cache")
	}
	cache, err := runcache.Open(cacheDir)
	if err != nil {
		return err
	}

	var sp *campaign.Spec
	if specPath != "" {
		if sp, err = campaign.ParseSpecFile(specPath); err != nil {
			return err
		}
	}

	log := os.Stderr
	var logw *os.File
	if !quiet {
		logw = log
	}

	if worker {
		// Worker mode: adopt the directory's campaign and run shards until
		// none are missing. The coordinator initialised the directory before
		// spawning us, so a missing manifest is an error, not a race.
		m, msp, err := campaign.Init(dir, sp, true)
		if err != nil {
			return err
		}
		if owner == "" {
			owner = fmt.Sprintf("w-%d", os.Getpid())
		}
		w := &campaign.Worker{
			Dir: dir, Manifest: m, Spec: msp, Cache: cache,
			Owner: owner, Lease: lease, Poll: poll, IgnoreClaims: ignore,
		}
		if logw != nil {
			w.Log = logw
		}
		before := cache.Stats()
		n, err := w.Run(ctx)
		delta := cache.Stats().Sub(before)
		waits, idle := w.IdleStats()
		fmt.Fprintf(log, "worker %s: published %d shards; idle %s in %d waits; cache: %s\n",
			owner, n, idle.Round(100*time.Microsecond), waits, delta)
		return err
	}

	o := campaign.Options{
		Dir: dir, Cache: cache, Workers: workers,
		Resume: resume, Lease: lease, Poll: poll, IgnoreClaims: ignore,
	}
	if logw != nil {
		o.Log = logw
	}
	if workers > 0 {
		exe, err := os.Executable()
		if err != nil {
			return fmt.Errorf("cannot re-execute for -workers: %w", err)
		}
		o.Spawn = func(ctx context.Context, i int) *exec.Cmd {
			args := []string{
				"-worker", "-dir", dir, "-cache", cacheDir,
				"-owner", fmt.Sprintf("w%d-%d", i, os.Getpid()),
				"-lease", lease.String(), "-poll", poll.String(),
			}
			if ignore {
				args = append(args, "-ignore-claims")
			}
			if quiet {
				args = append(args, "-quiet")
			}
			cmd := exec.CommandContext(ctx, exe, args...)
			cmd.Stdout = os.Stderr
			cmd.Stderr = os.Stderr
			return cmd
		}
	}

	res, err := campaign.Run(ctx, sp, o)
	if err != nil {
		return err
	}
	fmt.Fprintf(log, "campaign %s (%s) merged: %s\n", res.Manifest.Name, res.Manifest.ID, res.SnapPath)
	fmt.Fprintf(log, "deterministic telemetry: %s\nmerged runlog: %s\n", res.DetPath, res.RunlogPath)
	figures.RenderTelemetry(os.Stdout, dir, res.Snapshot)
	return nil
}

// printStatus reports per-shard completion without touching any claims.
func printStatus(dir string) error {
	m, _, err := campaign.ReadManifest(dir)
	if err != nil {
		return err
	}
	done, n := campaign.Status(dir, m)
	fmt.Printf("campaign %s (%s): %d runs in %d shards of ≤%d\n", m.Name, m.ID, m.Total, m.Shards, m.ShardSize)
	fmt.Printf("done: %d/%d\n", n, m.Shards)
	for i, d := range done {
		mark := "missing"
		if d {
			mark = "done"
		} else if info, ok, err := runcache.ReadClaim(campaign.ClaimPath(dir, i)); err == nil && ok {
			mark = "claimed by " + info.Owner
			if info.Expired(time.Now()) {
				mark += fmt.Sprintf(" (lease expired %.0fs ago)", time.Since(time.Unix(0, info.Expires)).Seconds())
			}
		}
		fmt.Printf("  shard %04d  %s\n", i, mark)
	}
	return nil
}
