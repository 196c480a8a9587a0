// Command perfbench is the repository's benchmark: it runs one workload for
// a fixed measurement length, checks every simulated result against a digest
// oracle, and prints each metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end figures a user of the
// simulator sees; with -trace 1 they are per-layer figures measured by
// timing calls into each package's public functions (see README.md).
//
// Run it through perfbench/run.sh from the repository root, which builds the
// binaries into .bench_build first:
//
//	bash perfbench/run.sh --workload paper_run --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload receives: its inputs, the oracle that checks
// its outputs, and where it may write.
type env struct {
	work       string // scratch directory for this invocation (removed at exit)
	seed       uint64
	seconds    float64
	trace      bool
	workers    int // warm campaign passes' worker processes (nproc)
	gscampaign string
	oracle     *oracle
	tr         *tracer
	prof       *selfProfile // CPU profile of the traced run's own work
	profRuns   int          // runs that profile covers
	metrics    map[string]metric
	notes      map[string]any // extra run metadata (sample counts, percentiles)
}

func (e *env) set(name string, v float64, unit string) { e.metrics[name] = metric{v, unit} }

func (e *env) note(key string, v any) { e.notes[key] = v }

var workloads = map[string]func(*env) error{
	"paper_run":      runPaper,
	"population_200": runPopulation,
	"campaign_grid":  runCampaignGrid,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: paper_run, population_200 or campaign_grid")
		seed     = flag.Uint64("seed", defaultSeed, "workload seed; inputs are a pure function of it")
		seconds  = flag.Float64("seconds", 15, "measurement length in seconds")
		traceOn  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		root     = flag.String("root", ".", "repository checkout (holds go.mod and internal/)")
		tamper   = flag.Bool("tamper", false, "self-test: corrupt every expected digest so each run must count as failed")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *traceOn == 1, *root, *tamper); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds float64, traced bool, root string, tamper bool) error {
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	build := filepath.Join(root, ".bench_build")
	gscampaign := filepath.Join(build, "bin", "gscampaign")
	if _, err := os.Stat(gscampaign); err != nil {
		return fmt.Errorf("gscampaign binary missing (run through perfbench/run.sh): %w", err)
	}
	if err := os.MkdirAll(filepath.Join(build, "perfbench"), 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(filepath.Join(build, "perfbench"), workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	orc, err := loadOracle(root, filepath.Join(build, "perfbench", "digests"), workload, seed, tamper)
	if err != nil {
		return err
	}
	e := &env{
		work: work, seed: seed, seconds: seconds, trace: traced,
		workers: campaignWorkers(), gscampaign: gscampaign,
		oracle: orc, tr: newTracer(traced), prof: newSelfProfile(), metrics: map[string]metric{}, notes: map[string]any{},
	}
	meta := runMeta(root, workload, e)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d seconds=%g trace=%v workers=%d\n", workload, seed, seconds, traced, e.workers)

	start := time.Now()
	if err := fn(e); err != nil {
		return err
	}
	if err := orc.save(); err != nil {
		return err
	}
	meta["wall_s"] = time.Since(start).Seconds()
	for k, v := range e.notes {
		meta[k] = v
	}

	res := result{
		Correct:   orc.failed == 0 && orc.attempted > 0,
		Attempted: orc.attempted,
		Failed:    orc.failed,
		Metrics:   e.metrics,
	}
	if traced {
		tracePath := filepath.Join(build, "perfbench", fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
		if err := e.tr.write(tracePath); err != nil {
			return err
		}
		meta["spans"] = tracePath
	}
	printTable(os.Stdout, workload, res)
	if err := saveResult(filepath.Join(build, "perfbench", "results"), workload, seed, traced, meta, res); err != nil {
		return err
	}
	metaLine, _ := json.Marshal(meta)
	fmt.Printf("meta %s\n", metaLine)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printTable renders every metric by name with its unit, plus the oracle's
// verdict as failed_frac (failed over attempted runs).
func printTable(w *os.File, workload string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s\n", workload)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-36s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%-36s %16.6g %s (%d of %d runs)\n", "failed_frac",
		float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio", res.Failed, res.Attempted)
}

// saveResult keeps one JSON document per invocation, metadata included, so
// two sets of runs can be compared like for like.
func saveResult(dir, workload string, seed uint64, traced bool, meta map[string]any, res result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t := 0
	if traced {
		t = 1
	}
	doc := map[string]any{"meta": meta, "result": res}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", workload, seed, t, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}
