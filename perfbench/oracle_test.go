package main

import (
	"testing"

	"repro/internal/experiment"
	"repro/internal/gamestream"
	"repro/internal/metrics"
	"repro/internal/units"
)

// shortRun is a compressed-timeline paper cell, cheap enough for a test.
func shortRun(seed uint64) *experiment.RunResult {
	cond := experiment.Condition{System: gamestream.Stadia, CCA: "cubic", Capacity: units.Mbps(25), QueueMult: 2}
	return experiment.Run(experiment.RunConfig{Condition: cond, Seed: seed, Timeline: metrics.PaperTimeline.Scale(0.02)})
}

// TestOracleSelfTest is the harness self-test behind failed_frac: a run
// matches its own recorded digest, a different run does not, and a
// tampered expectation turns every check into a failure.
func TestOracleSelfTest(t *testing.T) {
	got := runDigest(shortRun(1))
	if again := runDigest(shortRun(1)); again != got {
		t.Fatalf("same config, different digest: %+v vs %+v", again, got)
	}

	o := &oracle{expect: map[string]digest{"cell": got}, golden: true}
	if !o.check("cell", got) || o.failed != 0 {
		t.Fatalf("matching digest rejected (failed=%d)", o.failed)
	}
	if o.check("cell", runDigest(shortRun(2))) || o.failed != 1 {
		t.Fatalf("a different run's digest was accepted (failed=%d)", o.failed)
	}
	if o.check("unknown", got) || o.failed != 2 {
		t.Fatalf("a cell without a golden digest was accepted (failed=%d)", o.failed)
	}

	tampered := &oracle{expect: map[string]digest{"cell": got}, golden: true, tamper: true}
	for i := 0; i < 3; i++ {
		tampered.check("cell", got)
	}
	if frac := float64(tampered.failed) / float64(tampered.attempted); frac != 1 {
		t.Fatalf("tampered digest: failed_frac = %v, want 1", frac)
	}
}

// TestOracleRecordsNonDefaultSeed checks the held-out-seed path: the first
// run of a cell records its digest and later runs are checked against it.
func TestOracleRecordsNonDefaultSeed(t *testing.T) {
	o := &oracle{expect: map[string]digest{}}
	first := digest{Events: 10, SHA256: "a"}
	if !o.check("cell", first) || !o.dirty {
		t.Fatal("first run of a cell was not recorded")
	}
	if !o.check("cell", first) {
		t.Fatal("repeat run with the recorded digest rejected")
	}
	if o.check("cell", digest{Events: 11, SHA256: "a"}) || o.failed != 1 {
		t.Fatalf("event-count drift accepted (failed=%d)", o.failed)
	}
}

func TestTailOf(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	pct, v := tailOf(xs)
	if v != 30 || pct != 75 {
		t.Fatalf("tailOf(1..40) = p%v %v, want p75 30 (ten samples beyond)", pct, v)
	}
}
