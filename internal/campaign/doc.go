// Package campaign is the fleet-scale experiment coordinator: it expands a
// declarative campaign spec — a full factorial grid or Monte-Carlo draws
// from empirical rate/RTT/queue distributions — into a deterministic cell
// list, partitions the cells into shards, and executes the shards across
// any number of cooperating worker processes that share one
// content-addressed run cache.
//
// The division of labour:
//
//   - spec.go parses the INI-style campaign file into a Spec and renders
//     the Spec back to its canonical text, whose SHA-256 is the campaign ID.
//   - cells.go expands the Spec into cells. Expansion is a pure function of
//     the canonical text: every process that reads the manifest derives the
//     identical cell list, seeds included, with nothing else to ship.
//   - manifest.go pins the campaign directory layout: manifest.json plus
//     per-shard claim, runlog, and snapshot files. A shard's snapshot file
//     doubles as its done marker (written atomically, so it either exists
//     completely or not at all).
//   - worker.go is the claim-execute-publish loop one worker process runs:
//     acquire a shard's lease file, execute its cells through
//     experiment.RunCached, publish the shard runlog and telemetry
//     snapshot, release, repeat until no shards remain. When every
//     unfinished shard is held by a live peer it waits and rescans; the
//     wait starts at 1 ms, doubles with each idle scan up to Poll, and
//     resets when the worker executes a shard, so a dead peer's shard is
//     stolen within one Poll of its lease expiring.
//   - coordinator.go initialises (or resumes) the campaign directory,
//     spawns N worker processes, finishes any remaining shards in-process,
//     and merges the per-shard snapshots in shard order into the final
//     campaign telemetry.
//
// Correctness never depends on the claim files — they are leases that keep
// workers off each other's shards in the common case (see runcache's claim
// layer). A SIGKILL'd worker stops renewing; its lease expires; any other
// worker steals the shard and re-executes it, replaying every run the dead
// worker already cached. Because each shard's snapshot and runlog are pure
// functions of (spec, shard index) and the coordinator merges them in shard
// order, the merged deterministic telemetry is byte-identical however many
// workers ran, died, or raced.
package campaign
