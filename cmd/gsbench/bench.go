package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/experiment"
	"repro/internal/gamestream"
	"repro/internal/sim"
	"repro/internal/units"
)

// benchSchema versions the BENCH_*.json layout so downstream tooling can
// detect format changes.
const benchSchema = "gsbench-bench/v1"

// BenchResult is one benchmark's record in the -bench-json output. Events
// and allocation counts are exact and deterministic for a given build; the
// wall-clock figures (wall_ns, ns_per_event, events_per_sec, sim_x_real)
// vary with the machine and are the trajectory the file exists to track.
type BenchResult struct {
	Name         string  `json:"name"`
	Events       uint64  `json:"events"`
	WallNS       int64   `json:"wall_ns"`
	NSPerEvent   float64 `json:"ns_per_event"`
	EventsPerSec float64 `json:"events_per_sec"`
	AllocsPerRun uint64  `json:"allocs_per_run"`
	BytesPerRun  uint64  `json:"bytes_per_run"`
	SimXReal     float64 `json:"sim_x_real"`
}

// BenchReport is the top-level -bench-json document.
type BenchReport struct {
	Schema     string        `json:"schema"`
	GoVersion  string        `json:"go_version"`
	NumCPU     int           `json:"num_cpu"`
	Benchmarks []BenchResult `json:"benchmarks"`
}

// benchCases is the fixed trajectory suite: the paper's central condition
// under both competitor CCAs, the BBR-starved shallow-queue cell, a solo
// baseline, and the deep-queue AQM variant — one full-fidelity trace each,
// with fixed seeds so events and allocs are reproducible run to run.
var benchCases = []struct {
	name string
	cfg  experiment.RunConfig
}{
	{"single_run_stadia_cubic_B25_q2", experiment.RunConfig{
		Condition: experiment.Condition{System: gamestream.Stadia, CCA: "cubic", Capacity: units.Mbps(25), QueueMult: 2},
		Seed:      1,
	}},
	{"single_run_stadia_bbr_B25_q2", experiment.RunConfig{
		Condition: experiment.Condition{System: gamestream.Stadia, CCA: "bbr", Capacity: units.Mbps(25), QueueMult: 2},
		Seed:      1,
	}},
	{"single_run_luna_bbr_B25_q0.5", experiment.RunConfig{
		Condition: experiment.Condition{System: gamestream.Luna, CCA: "bbr", Capacity: units.Mbps(25), QueueMult: 0.5},
		Seed:      1,
	}},
	{"single_run_geforce_solo_B15_q2", experiment.RunConfig{
		Condition: experiment.Condition{System: gamestream.GeForce, Capacity: units.Mbps(15), QueueMult: 2},
		Seed:      1,
	}},
	{"single_run_stadia_cubic_B25_q7_codel", experiment.RunConfig{
		Condition: experiment.Condition{System: gamestream.Stadia, CCA: "cubic", Capacity: units.Mbps(25), QueueMult: 7, AQM: experiment.AQMCoDel},
		Seed:      1,
	}},
	{"many_flows_200", experiment.RunConfig{
		Condition:  experiment.Condition{System: gamestream.Stadia, Capacity: units.Mbps(25), QueueMult: 2},
		Population: experiment.FlowPopulation{Flows: 200},
		Seed:       1,
	}},
}

// benchReps is how many times each case is measured; the fastest rep is
// reported. Events and allocs are deterministic so any rep carries them;
// taking the minimum wall time filters scheduler and cache noise that a
// single-shot measurement passes straight into the trajectory file — and
// from there into spurious bench-compare regressions.
const benchReps = 3

// measureBest measures fn benchReps times and keeps the fastest rep.
func measureBest(fn func() (events uint64, simTime time.Duration)) BenchResult {
	best := measure(fn)
	for i := 1; i < benchReps; i++ {
		if r := measure(fn); r.WallNS < best.WallNS {
			best = r
		}
	}
	return best
}

// measure runs fn once and returns wall time plus the allocation deltas.
// The runtime.MemStats counters are process-wide, so anything else
// allocating meanwhile (another goroutine, the runtime itself) is counted
// too; the suite runs its cases one at a time for that reason. A GC up
// front keeps dead objects from a previous case out of this case's
// numbers.
func measure(fn func() (events uint64, simTime time.Duration)) BenchResult {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	events, simTime := fn()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)

	r := BenchResult{
		Events:       events,
		WallNS:       wall.Nanoseconds(),
		AllocsPerRun: after.Mallocs - before.Mallocs,
		BytesPerRun:  after.TotalAlloc - before.TotalAlloc,
	}
	if events > 0 {
		r.NSPerEvent = float64(wall.Nanoseconds()) / float64(events)
	}
	if wall > 0 {
		r.EventsPerSec = float64(events) / wall.Seconds()
		r.SimXReal = simTime.Seconds() / wall.Seconds()
	}
	return r
}

// runBenchJSON executes the trajectory suite and writes the report to path.
func runBenchJSON(path string) error {
	report := BenchReport{
		Schema:    benchSchema,
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
	}

	// Engine microbenchmark: raw schedule+dispatch throughput with a
	// reused closure, the figure that bounds every number below.
	const microEvents = 2_000_000
	micro := measureBest(func() (uint64, time.Duration) {
		e := sim.NewEngine(1)
		n := 0
		var fn func()
		fn = func() {
			n++
			if n < microEvents {
				e.Schedule(time.Microsecond, fn)
			}
		}
		e.Schedule(time.Microsecond, fn)
		e.Run(sim.End)
		return e.Stats().EventsDispatched, e.Stats().SimTime.Duration()
	})
	micro.Name = "engine_dispatch"
	micro.SimXReal = 0 // virtual microseconds per event; speedup is meaningless here
	report.Benchmarks = append(report.Benchmarks, micro)

	for _, bc := range benchCases {
		cfg := bc.cfg
		r := measureBest(func() (uint64, time.Duration) {
			res := experiment.Run(cfg)
			return res.Engine.EventsDispatched, res.Engine.SimTime.Duration()
		})
		r.Name = bc.name
		report.Benchmarks = append(report.Benchmarks, r)
		fmt.Fprintf(os.Stderr, "gsbench: bench %-40s %9d events  %7.1f ns/event  %8d allocs\n",
			r.Name, r.Events, r.NSPerEvent, r.AllocsPerRun)
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
