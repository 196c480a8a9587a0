package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/stats"
)

const (
	// gridScale compresses the 540 s paper timeline for campaign_grid.
	gridScale = 0.25
	// gridShards partitions the 54 cells two to a shard, so concurrent
	// workers finish within about one run of each other.
	gridShards = 27
	// coldWorkers is the cold passes' -workers value. One worker process
	// gives each simulation a CPU to itself: with two concurrent
	// simulations on two vCPUs, cold throughput swung by a quarter with
	// load from outside the machine. Warm passes use nproc workers, the
	// configuration whose poll sleep the campaign layer should shed.
	coldWorkers = 1
	// cycleS is the nominal seconds per campaign cycle (one cold pass and
	// warmPasses warm passes); the cycle count is fixed from -seconds.
	cycleS     = 7.5
	minCycles  = 2
	warmPasses = 5
)

// gridSpec renders the 54-cell paper grid (3 systems x {cubic, bbr} x 3
// capacities x 3 queue depths, one iteration) as a campaign file.
func gridSpec(name string, seed uint64, scale float64) string {
	return fmt.Sprintf(`[campaign]
name = %s
seed = %d
iterations = 1
scale = %s
shards = %d

[grid]
systems = stadia, geforce, luna
ccas = cubic, bbr
capacities = 15mbit, 25mbit, 35mbit
queue_mults = 0.5, 2, 7
`, name, seed, strconv.FormatFloat(scale, 'g', -1, 64), gridShards)
}

// smokeSpec is a six-cell campaign the set-up phase runs through the CLI
// before timing.
func smokeSpec(seed uint64) string {
	return fmt.Sprintf(`[campaign]
name = perfbench-setup
seed = %d
iterations = 1
scale = 0.05
shards = 3

[grid]
systems = stadia
ccas = cubic, bbr
capacities = 25mbit
queue_mults = 0.5, 2, 7
`, seed)
}

// pass is one gscampaign invocation's outcome.
type pass struct {
	dir    string
	wall   time.Duration
	det    []byte
	lines  [][]byte
	events []uint64
	peaks  []int
	simS   float64
}

// runCampaignGrid drives the real gscampaign CLI over the paper grid:
// each cycle is a cold pass (fresh directory, fresh cache: every cell
// simulates and is stored) and warmPasses warm passes (fresh directory over
// the now-warm cache: every cell is a read and decode).
func runCampaignGrid(e *env) error {
	specText := gridSpec("perfbench-grid", e.seed, gridScale)
	specPath := filepath.Join(e.work, "grid.campaign")
	setups := make([]float64, setupReps)
	for i := range setups {
		t0 := time.Now()
		if err := setupCampaign(e, specPath, specText, i); err != nil {
			return err
		}
		setups[i] = time.Since(t0).Seconds()
	}

	cycles := max(int(math.Round(e.seconds/cycleS)), minCycles)
	var coldWalls, warmWalls, simRates, tracedP50, plainP50 []float64
	runWall := stats.NewMetricSketch(400)
	var lastCold *pass
	for c := 0; c < cycles; c++ {
		e.tr.on = e.trace && c%2 == 1
		cache := filepath.Join(e.work, fmt.Sprintf("cache-%d", c))
		cold, err := cliPass(e, "bench.cli_cold", specPath, filepath.Join(e.work, fmt.Sprintf("cold-%d", c)), cache, coldWorkers)
		if err != nil {
			e.oracle.fail(fmt.Sprintf("cold pass %d", c), 54, err.Error())
			continue
		}
		checkPass(e, cold, nil)
		coldWalls = append(coldWalls, cold.wall.Seconds())
		simRates = append(simRates, cold.simS/cold.wall.Seconds())
		if snap, err := obs.ReadSnapshot(campaign.MergedSnapPath(cold.dir)); err == nil && snap.Engine["wall_s"] != nil {
			sk := snap.Engine["wall_s"]
			runWall.Merge(sk)
			if e.tr.on {
				tracedP50 = append(tracedP50, sk.Quantile(0.5))
			} else {
				plainP50 = append(plainP50, sk.Quantile(0.5))
			}
		}
		for w := 0; w < warmPasses; w++ {
			warm, err := cliPass(e, "bench.cli_warm", specPath, filepath.Join(e.work, fmt.Sprintf("warm-%d-%d", c, w)), cache, e.workers)
			if err != nil {
				e.oracle.fail(fmt.Sprintf("warm pass %d.%d", c, w), 54, err.Error())
				continue
			}
			checkPass(e, warm, cold.det)
			warmWalls = append(warmWalls, warm.wall.Seconds())
			os.RemoveAll(warm.dir)
		}
		os.RemoveAll(cold.dir)
		os.RemoveAll(cache)
		lastCold = cold
	}
	e.tr.on = e.trace
	if len(coldWalls) == 0 || len(warmWalls) == 0 {
		return fmt.Errorf("every campaign pass failed")
	}

	cells := float64(len(mustSpec(specText).Cells()))
	n := float64(runWall.N())
	tailP := math.Max(0.5, (n-10)/n)
	e.note("run_s_tail_percentile", 100*tailP)
	e.note("run_samples", runWall.N())
	e.note("cold_passes", len(coldWalls))
	e.note("warm_passes", len(warmWalls))
	if e.trace {
		overhead := 0.0
		if len(tracedP50) > 0 && len(plainP50) > 0 {
			overhead = median(tracedP50) - median(plainP50)
		}
		e.set("tracing.overhead_s", overhead, "s")
		return campaignLayers(e, specText, median(warmWalls), lastCold)
	}
	e.set("setup_s", median(setups), "s")
	e.set("run_s_p50", runWall.Quantile(0.5), "s")
	e.set("run_s_tail", runWall.Quantile(tailP), "s")
	e.set("sim_x_real", median(simRates), "x")
	e.set("cold_runs_per_s", cells/median(coldWalls), "1/s")
	e.set("warm_runs_per_s", cells/median(warmWalls), "1/s")
	e.set("peak_rss_mb", peakRSSMB(true), "MB")
	return nil
}

// setupCampaign writes the workload's spec, parses it, and runs the CLI
// over a small smoke campaign in a fresh directory. It uses one worker
// process: whether a second worker would sleep one poll interval depends on
// process start order, and set-up time must not.
func setupCampaign(e *env, specPath, specText string, rep int) error {
	if err := os.WriteFile(specPath, []byte(specText), 0o644); err != nil {
		return err
	}
	if _, err := campaign.ParseSpecFile(specPath); err != nil {
		return err
	}
	smoke := filepath.Join(e.work, "smoke.campaign")
	if err := os.WriteFile(smoke, []byte(smokeSpec(e.seed)), 0o644); err != nil {
		return err
	}
	dir := filepath.Join(e.work, fmt.Sprintf("setup-%d", rep))
	defer os.RemoveAll(dir)
	return gscampaign(e, smoke, dir, filepath.Join(dir, "cache"), 1)
}

// gscampaign runs the CLI to completion; its output is kept for the error
// message when it fails.
func gscampaign(e *env, spec, dir, cache string, workers int) error {
	cmd := exec.Command(e.gscampaign, "-spec", spec, "-dir", dir, "-cache", cache,
		"-workers", strconv.Itoa(workers), "-quiet")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("gscampaign %s: %w\n%s", dir, err, out.Bytes())
	}
	return nil
}

// cliPass times one gscampaign invocation and loads its merged artefacts.
func cliPass(e *env, spanName, spec, dir, cache string, workers int) (*pass, error) {
	id := e.tr.begin(spanName)
	t0 := time.Now()
	err := gscampaign(e, spec, dir, cache, workers)
	wall := time.Since(t0)
	e.tr.end(id, 1)
	if err != nil {
		return nil, err
	}
	p := &pass{dir: dir, wall: wall}
	if p.det, err = os.ReadFile(campaign.MergedDetPath(dir)); err != nil {
		return nil, err
	}
	f, err := os.Open(campaign.MergedRunlogPath(dir))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := append([]byte(nil), sc.Bytes()...)
		var rec obs.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, err
		}
		p.lines = append(p.lines, line)
		p.events = append(p.events, rec.Engine.Events)
		p.peaks = append(p.peaks, rec.Engine.PeakPending)
		p.simS += rec.Engine.SimSeconds
	}
	return p, sc.Err()
}

// checkPass verifies every cell's canonical runlog line and the merged
// deterministic telemetry against the oracle; a warm pass's
// merged.det.json must also byte-equal its cold pass's.
func checkPass(e *env, p *pass, coldDet []byte) {
	if len(p.lines) == 0 {
		e.oracle.fail(p.dir, 54, "empty merged runlog")
		return
	}
	for i, line := range p.lines {
		var rec obs.Record
		_ = json.Unmarshal(line, &rec)
		e.oracle.check(fmt.Sprintf("%s#%d", rec.Cond, rec.Iteration), bytesDigest(p.events[i], line))
	}
	e.oracle.matches("merged.det.json", bytesDigest(0, p.det))
	if coldDet != nil && !bytes.Equal(coldDet, p.det) {
		e.oracle.reject(p.dir, "merged.det.json differs from the cold pass")
	}
}

func mustSpec(text string) *campaign.Spec {
	sp, err := campaign.ParseSpec(bytes.NewReader([]byte(text)))
	if err != nil {
		panic(err)
	}
	return sp
}
