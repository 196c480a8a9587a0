package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/experiment"
	"repro/internal/gamestream"
	"repro/internal/metrics"
	"repro/internal/runcache"
	"repro/internal/units"
)

// simCell is one configuration an in-process workload runs repeatedly.
type simCell struct {
	name string
	cfg  experiment.RunConfig
}

// paperCells is the paper_run mix: the central stadia cell under both
// competitor CCAs, BBR against luna's shallow queue, cubic against
// geforce's deep queue, and a solo baseline. Seeds derive from the workload
// seed and the cell's grid position exactly as a sweep derives them.
func paperCells(seed uint64) []simCell {
	conds := []experiment.Condition{
		{System: gamestream.Stadia, CCA: "cubic", Capacity: units.Mbps(25), QueueMult: 2},
		{System: gamestream.Stadia, CCA: "bbr", Capacity: units.Mbps(25), QueueMult: 2},
		{System: gamestream.Luna, CCA: "bbr", Capacity: units.Mbps(25), QueueMult: 0.5},
		{System: gamestream.GeForce, CCA: "cubic", Capacity: units.Mbps(15), QueueMult: 7},
		{System: gamestream.GeForce, Capacity: units.Mbps(15), QueueMult: 2},
	}
	cells := make([]simCell, len(conds))
	for i, c := range conds {
		cfg := experiment.RunConfig{Condition: c, Seed: experiment.RunSeed(seed, 0, c)}
		cells[i] = simCell{c.String(), cfg.Defaults()}
	}
	return cells
}

// populationCells is the population_200 configuration: stadia plus 200
// ON/OFF iperf slots at 25 Mb/s with a 2xBDP queue (gsbench's
// many_flows_200).
func populationCells(seed uint64) []simCell {
	c := experiment.Condition{System: gamestream.Stadia, Capacity: units.Mbps(25), QueueMult: 2}
	cfg := experiment.RunConfig{
		Condition:  c,
		Population: experiment.FlowPopulation{Flows: 200},
		Seed:       experiment.RunSeed(seed, 0, c),
	}
	return []simCell{{c.String() + "/" + cfg.Population.String(), cfg.Defaults()}}
}

// Nominal seconds per round (one run of every cell) on the reference
// machine. The round count is fixed from -seconds with these alone, so every
// run of a workload computes its percentiles over the same number of
// samples, however fast the host or the program is.
const (
	paperRoundS      = 1.9
	populationRoundS = 0.7
	minSimSamples    = 25
	warmHits         = 1000
	setupReps        = 5
	warmupScale      = 0.05
)

func runPaper(e *env) error { return runSim(e, paperCells(e.seed), paperRoundS) }

func runPopulation(e *env) error { return runSim(e, populationCells(e.seed), populationRoundS) }

// sample is one timed simulated run.
type sample struct {
	wall   time.Duration
	simS   float64
	traced bool
}

// runSim is the in-process workload loop shared by paper_run and
// population_200: rounds of full-fidelity experiment.Run calls over the
// cells, the first round through experiment.RunCached on an empty cache so
// that cache hits of the same results can be timed between later runs.
func runSim(e *env, cells []simCell, roundS float64) error {
	var cache *runcache.Cache
	setups := make([]float64, setupReps)
	for i := range setups {
		t0 := time.Now()
		c, err := setupSim(e, cells, i)
		if err != nil {
			return err
		}
		cache = c
		setups[i] = time.Since(t0).Seconds()
	}

	minRounds := (minSimSamples + len(cells) - 1) / len(cells)
	rounds := max(int(math.Round(e.seconds/roundS)), minRounds)
	// Cache hits are timed in batches of one hit per cell after every
	// simulated run from the second round on, not in one phase at the end: a
	// phase of a second catches the host at one moment, while batches spread
	// over the run see the same host conditions as the simulated runs.
	simRuns := (rounds - 1) * len(cells)
	batches := (warmHits/len(cells) + simRuns - 1) / simRuns
	var samples []sample
	var roundRates, warmRates []float64
	for r := 0; r < rounds; r++ {
		// In a traced run, odd rounds carry spans and the CPU profile and
		// even rounds do not; the difference of their medians is the
		// tracing overhead.
		e.tr.on = e.trace && r%2 == 1
		if e.tr.on {
			if err := e.prof.start(); err != nil {
				return err
			}
		}
		var roundWall time.Duration
		for _, c := range cells {
			useCache := cache
			if r > 0 {
				useCache = nil
			}
			id := e.tr.begin("experiment.run")
			t0 := time.Now()
			res, _, err := runCell(useCache, c.cfg)
			wall := time.Since(t0)
			e.tr.end(id, 1)
			if err != nil {
				e.oracle.fail(c.name, 1, err.Error())
				continue
			}
			roundWall += wall
			samples = append(samples, sample{wall, c.cfg.Timeline.TraceEnd.Seconds(), e.tr.on})
			e.oracle.check(c.name, runDigest(res))
			// The first round stored every cell, so from here RunCached is
			// a read and decode; its result must match the oracle like a
			// simulated one. Profiled rounds skip the hits, so the profile
			// holds only simulation.
			if r > 0 && !e.tr.on {
				for b := 0; b < batches; b++ {
					warmRates = append(warmRates, warmBatch(e, cells, cache))
				}
			}
		}
		roundRates = append(roundRates, float64(len(cells))/roundWall.Seconds())
		if e.tr.on {
			if err := e.prof.stop(); err != nil {
				return err
			}
			e.profRuns += len(cells)
		}
	}
	e.tr.on = e.trace
	if len(samples) == 0 {
		return fmt.Errorf("every run failed")
	}

	walls := make([]float64, 0, len(samples))
	var simS, wallS float64
	for _, s := range samples {
		walls = append(walls, s.wall.Seconds())
		simS += s.simS
		wallS += s.wall.Seconds()
	}
	pct, tail := tailOf(walls)
	e.note("run_s_tail_percentile", pct)
	e.note("run_samples", len(walls))
	if e.trace {
		e.set("tracing.overhead_s", tracingOverhead(samples), "s")
		return simLayers(e, cells, cache)
	}
	e.set("setup_s", median(setups), "s")
	e.set("run_s_p50", median(walls), "s")
	e.set("run_s_tail", tail, "s")
	e.set("sim_x_real", simS/wallS, "x")
	e.set("cold_runs_per_s", median(roundRates), "1/s")
	e.set("warm_runs_per_s", median(warmRates), "1/s")
	e.set("peak_rss_mb", peakRSSMB(false), "MB")
	return nil
}

// warmBatch times one cache hit of every cell and returns hits per second.
func warmBatch(e *env, cells []simCell, cache *runcache.Cache) float64 {
	var wall time.Duration
	for _, c := range cells {
		t0 := time.Now()
		res, hit, err := runCell(cache, c.cfg)
		wall += time.Since(t0)
		if err != nil || !hit {
			e.oracle.fail(c.name+" (cached)", 1, fmt.Sprintf("hit=%v err=%v", hit, err))
			continue
		}
		e.oracle.check(c.name, runDigest(res))
	}
	return float64(len(cells)) / wall.Seconds()
}

// setupSim is the one-off work before the first timed run: a fresh run
// cache, and a compressed-timeline pass over every cell so lazy allocation
// and page faults land before timing starts. The last repetition's cache is
// the one the workload uses.
func setupSim(e *env, cells []simCell, rep int) (*runcache.Cache, error) {
	cache, err := runcache.Open(filepath.Join(e.work, fmt.Sprintf("cache-%d", rep)))
	if err != nil {
		return nil, err
	}
	for _, c := range cells {
		cfg := c.cfg
		cfg.Timeline = metrics.PaperTimeline.Scale(warmupScale)
		if _, _, err := runCell(nil, cfg); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", c.name, err)
		}
	}
	return cache, nil
}

// runCell runs cfg through the cache (nil = plain Run), turning a panic
// into an error so one bad run counts as failed instead of ending the
// benchmark.
func runCell(cache *runcache.Cache, cfg experiment.RunConfig) (res *experiment.RunResult, hit bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	res, hit = experiment.RunCached(cache, cfg)
	return res, hit, nil
}

// tracingOverhead is the median traced run minus the median untraced one.
func tracingOverhead(samples []sample) float64 {
	var on, off []float64
	for _, s := range samples {
		if s.traced {
			on = append(on, s.wall.Seconds())
		} else {
			off = append(off, s.wall.Seconds())
		}
	}
	if len(on) == 0 || len(off) == 0 {
		return 0
	}
	return median(on) - median(off)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailOf returns the highest percentile with at least ten samples beyond
// it, and the sample at that percentile.
func tailOf(xs []float64) (pct, v float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n <= 10 {
		return 100, s[n-1]
	}
	i := n - 11
	return 100 * float64(i+1) / float64(n), s[i]
}
