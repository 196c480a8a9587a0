package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiment"
	"repro/internal/gamestream"
	"repro/internal/iperf"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/runcache"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcp"
	"repro/internal/trace"
	"repro/internal/units"
)

// The per-layer probes time calls into each package's public API from this
// file, on inputs taken from the workload where the layer consumes them:
// its own run configs and results, its own bottleneck packet stream, its
// own run cache. Every probe is one span named <layer>.<probe>.

const (
	// probeScale compresses the campaign-layer probe grid that the
	// in-process workloads (which bypass the campaign layer) run.
	probeScale = 0.02
	// maxCapture bounds the bottleneck packets kept for the netem replay.
	maxCapture = 400_000
)

// layerIn is what the probes need from a workload.
type layerIn struct {
	cfgs  []experiment.RunConfig
	names []string        // oracle cell names of cfgs (nil: digests not checked)
	cache *runcache.Cache // holds every cfg's result
	// events and peak are the exact engine counts of one unit of the
	// workload's work (a round of cells, or one cold campaign pass).
	events uint64
	peak   int
}

// simLayers runs the probes for paper_run and population_200.
func simLayers(e *env, cells []simCell, cache *runcache.Cache) error {
	in := layerIn{cache: cache}
	for _, c := range cells {
		in.cfgs = append(in.cfgs, c.cfg)
		in.names = append(in.names, c.name)
	}
	if err := commonLayers(e, in); err != nil {
		return err
	}
	// The campaign layer is bypassed by these workloads; probe it on the
	// paper grid compressed to probeScale: cold then warm through the CLI,
	// then the same spec replayed in-process.
	specText := gridSpec("perfbench-probe", e.seed, probeScale)
	specPath := filepath.Join(e.work, "probe.campaign")
	if err := os.WriteFile(specPath, []byte(specText), 0o644); err != nil {
		return err
	}
	cliCache := filepath.Join(e.work, "probe-cache")
	cold, err := cliPass(e, "bench.cli_cold", specPath, filepath.Join(e.work, "probe-cold"), cliCache, coldWorkers)
	if err != nil {
		return err
	}
	var warm []float64
	for i := 0; i < warmPasses; i++ {
		p, err := cliPass(e, "bench.cli_warm", specPath, filepath.Join(e.work, fmt.Sprintf("probe-warm-%d", i)), cliCache, e.workers)
		if err != nil {
			return err
		}
		warm = append(warm, p.wall.Seconds())
	}
	return campaignProbes(e, specText, median(warm), cold.det, false, nil)
}

// campaignLayers runs the probes for campaign_grid: the workload's spec
// replayed in-process, the in-process probes on the grid's first cells
// over the replay's cache, and the campaign-layer probes.
func campaignLayers(e *env, specText string, cliWarm float64, last *pass) error {
	return campaignProbes(e, specText, cliWarm, last.det, true, func(sp *campaign.Spec, cache *runcache.Cache) error {
		in := layerIn{cache: cache}
		for _, c := range sp.Cells()[:5] {
			in.cfgs = append(in.cfgs, c.RunConfig(sp))
		}
		for i := range last.events {
			in.events += last.events[i]
			in.peak = max(in.peak, last.peaks[i])
		}
		return commonLayers(e, in)
	})
}

// commonLayers runs every probe except the campaign layer's.
func commonLayers(e *env, in layerIn) error {
	tr := e.tr

	// experiment: one run per config with process-wide allocation deltas.
	// runtime.MemStats counts every goroutine's allocations, so the figure
	// is a count with a small bound, not an exact per-run constant.
	results := make([]*experiment.RunResult, len(in.cfgs))
	var events uint64
	var wall time.Duration
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, cfg := range in.cfgs {
		id := tr.begin("experiment.run")
		t0 := time.Now()
		results[i] = experiment.Run(cfg)
		wall += time.Since(t0)
		tr.end(id, 1)
		events += results[i].Engine.EventsDispatched
	}
	runtime.ReadMemStats(&after)
	n := float64(len(in.cfgs))
	e.set("experiment.allocs_per_run", float64(after.Mallocs-before.Mallocs)/n, "count")
	e.set("experiment.alloc_bytes_per_run", float64(after.TotalAlloc-before.TotalAlloc)/n, "bytes")
	for i, name := range in.names {
		e.oracle.matches(name, runDigest(results[i]))
	}

	// sim: exact counts from the workload, then the dispatch micro-probes
	// at the heap depths the two simulating workloads peak at.
	if in.events == 0 {
		for _, r := range results {
			in.events += r.Engine.EventsDispatched
			in.peak = max(in.peak, r.Engine.PeakPending)
		}
	}
	e.set("sim.events", float64(in.events), "count")
	e.set("sim.peak_pending", float64(in.peak), "count")
	e.set("sim.ns_per_event", float64(wall.Nanoseconds())/float64(events), "ns")
	e.set("sim.dispatch_ns.d100", probe(tr, "sim.dispatch_d100", func() (time.Duration, int) { return dispatch(100, 1_000_000) }), "ns")
	e.set("sim.dispatch_ns.d2000", probe(tr, "sim.dispatch_d2000", func() (time.Duration, int) { return dispatch(2000, 1_000_000) }), "ns")
	e.set("sim.timer_reset_ns", probe(tr, "sim.timer_reset", func() (time.Duration, int) { return timerReset(2000, 1_000_000) }), "ns")

	// netem and trace: the workload's own bottleneck stream, captured
	// through the public RunConfig.OnPacket hook, replayed through each
	// element. Each figure is the element's replay minus a bare replay.
	recs := capture(tr, in.cfgs[0])
	if len(recs) == 0 {
		return fmt.Errorf("empty bottleneck capture")
	}
	cfg := in.cfgs[0].Defaults()
	base := bestOf(3, func() time.Duration { return replay(recs, nil) })
	perPkt := func(name string, build func(*sim.Engine, *packet.Pool, packet.Handler) packet.Handler) float64 {
		id := tr.begin(name)
		d := bestOf(3, func() time.Duration { return replay(recs, build) })
		tr.end(id, 3*len(recs))
		return float64((d - base).Nanoseconds()) / float64(len(recs))
	}
	e.set("netem.shaper_droptail_ns_per_pkt", perPkt("netem.shaper_droptail", func(eng *sim.Engine, pool *packet.Pool, sink packet.Handler) packet.Handler {
		q := netem.NewDropTail(cfg.QueueBytes())
		q.SetDropCallback(pool.Put)
		return netem.NewShaper(eng, cfg.Capacity, cfg.Burst, q, sink)
	}), "ns")
	e.set("netem.delay_ns_per_pkt", perPkt("netem.delay", func(eng *sim.Engine, _ *packet.Pool, sink packet.Handler) packet.Handler {
		return netem.NewDelay(eng, cfg.BaseRTT/2, sink)
	}), "ns")
	e.set("netem.link_ns_per_pkt", perPkt("netem.link", func(eng *sim.Engine, _ *packet.Pool, sink packet.Handler) packet.Handler {
		return netem.NewLink(eng, units.Gbps(1), 50*time.Microsecond, sink)
	}), "ns")
	e.set("netem.router_ns_per_pkt", perPkt("netem.router", func(_ *sim.Engine, _ *packet.Pool, sink packet.Handler) packet.Handler {
		r := netem.NewRouter()
		for _, rec := range recs {
			r.Route(rec.dst, sink)
		}
		return r
	}), "ns")
	var capt *trace.Capture
	e.set("trace.tap_ns_per_pkt", perPkt("trace.tap", func(eng *sim.Engine, _ *packet.Pool, sink packet.Handler) packet.Handler {
		capt = trace.NewCapture(eng, trace.DefaultBin)
		capt.SetHorizon(cfg.Timeline.TraceEnd)
		return packet.HandlerFunc(func(p *packet.Packet) {
			capt.Tap(p)
			capt.TapDelivered(p)
			sink.Handle(p)
		})
	}), "ns")
	flows := map[packet.FlowID]bool{}
	for _, rec := range recs {
		flows[rec.flow] = true
	}
	bins := int(cfg.Timeline.TraceEnd / trace.DefaultBin)
	e.set("trace.series_ms", 1e-6*probe(tr, "trace.series", func() (time.Duration, int) {
		const reps = 20
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			for f := range flows {
				capt.BitrateSeries(f, bins)
			}
		}
		return time.Since(t0), reps
	}), "ms")

	// metrics: §4.2 response/recovery on the workload's game series.
	e.set("metrics.response_recovery_us", 1e-3*probe(tr, "metrics.response_recovery", func() (time.Duration, int) {
		const reps = 2000
		s, tl := results[0].GameSeries(), results[0].Cfg.Timeline
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			metrics.MeasureResponseRecovery(s, tl)
		}
		return time.Since(t0), reps
	}), "us")

	// tcp, iperf, gamestream, packet: the endpoints on small testbeds.
	bdp := units.BDP(units.Mbps(25), cfg.BaseRTT)
	e.set("tcp.cubic_ns_per_seg", probe(tr, "tcp.cubic_clean", func() (time.Duration, int) { return bulk(tcp.AlgCubic, 1000*bdp, cfg.BaseRTT) }), "ns")
	e.set("tcp.bbr_ns_per_seg", probe(tr, "tcp.bbr_clean", func() (time.Duration, int) { return bulk(tcp.AlgBBR, 1000*bdp, cfg.BaseRTT) }), "ns")
	e.set("tcp.recovery_ns_per_seg", probe(tr, "tcp.cubic_droptail_2bdp", func() (time.Duration, int) { return bulk(tcp.AlgCubic, 2*bdp, cfg.BaseRTT) }), "ns")
	e.set("iperf.restart_ns", probe(tr, "iperf.restart", func() (time.Duration, int) { return restarts(100_000) }), "ns")
	e.set("gamestream.ns_per_frame", probe(tr, "gamestream.frames", func() (time.Duration, int) { return frames(cfg.BaseRTT) }), "ns")
	e.set("packet.pool_ns", probe(tr, "packet.pool", func() (time.Duration, int) {
		const reps = 5_000_000
		pool := packet.NewPool()
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			pool.Put(pool.Get())
		}
		return time.Since(t0), reps
	}), "ns")

	// experiment and runcache: the workload's own cache entries.
	keys := make([]runcache.Key, len(in.cfgs))
	for i, c := range in.cfgs {
		k, ok := experiment.CacheKey(c)
		if !ok {
			return fmt.Errorf("config %d is not cacheable", i)
		}
		keys[i] = k
	}
	e.set("experiment.cache_key_us", 1e-3*probe(tr, "experiment.cache_key", func() (time.Duration, int) {
		const reps = 2000
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			experiment.CacheKey(in.cfgs[i%len(in.cfgs)])
		}
		return time.Since(t0), reps
	}), "us")
	e.set("experiment.cache_hit_us", 1e-3*probe(tr, "experiment.cache_hit", func() (time.Duration, int) {
		reps := 20 * len(in.cfgs)
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			if _, hit := experiment.RunCached(in.cache, in.cfgs[i%len(in.cfgs)]); !hit {
				e.oracle.reject(fmt.Sprint(in.cfgs[i%len(in.cfgs)].Condition), "cache miss on a warm cache")
			}
		}
		return time.Since(t0), reps
	}), "us")
	var blobs [][]byte
	e.set("runcache.get_us", 1e-3*probe(tr, "runcache.get", func() (time.Duration, int) {
		reps := 20 * len(keys)
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			data, ok := in.cache.Get(keys[i%len(keys)])
			if ok && i < len(keys) {
				blobs = append(blobs, data)
			}
		}
		return time.Since(t0), reps
	}), "us")
	if len(blobs) != len(keys) {
		return fmt.Errorf("runcache: %d of %d entries missing", len(keys)-len(blobs), len(keys))
	}
	var total int
	for _, b := range blobs {
		total += len(b)
	}
	e.set("runcache.blob_bytes", float64(total)/float64(len(blobs)), "bytes")
	side, err := runcache.Open(filepath.Join(e.work, "put-cache"))
	if err != nil {
		return err
	}
	e.set("runcache.put_us", 1e-3*probe(tr, "runcache.put", func() (time.Duration, int) {
		const reps = 200
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			if err := side.Put(runcache.NewKey().Addf("perfbench-put-%d", i).Key(), blobs[i%len(blobs)]); err != nil {
				e.oracle.reject("runcache.put", err.Error())
			}
		}
		return time.Since(t0), reps
	}), "us")

	// obs and stats: the workload's run records and series.
	e.set("obs.rundone_us", 1e-3*probe(tr, "obs.rundone", func() (time.Duration, int) {
		const reps = 2000
		agg := obs.NewAggregator()
		agg.SweepStart(reps)
		recs := make([]obs.Record, len(results))
		for i, r := range results {
			recs[i] = r.Record(0)
		}
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			rec := recs[i%len(recs)]
			rec.Iteration = i / len(recs)
			agg.RunDone(obs.Update{Cond: rec.Cond, Seed: rec.Seed, Iteration: rec.Iteration, RunWall: time.Millisecond, Record: &rec})
		}
		return time.Since(t0), reps
	}), "us")
	var values []float64
	for _, r := range results {
		values = append(values, r.GameMbps...)
		values = append(values, r.TCPMbps...)
	}
	e.set("stats.tdigest_add_ns", probe(tr, "stats.tdigest_add", func() (time.Duration, int) {
		const reps = 500_000
		td := stats.NewTDigest(400)
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			td.Add(values[i%len(values)])
		}
		return time.Since(t0), reps
	}), "ns")
	e.set("stats.sketch_merge_us", 1e-3*probe(tr, "stats.sketch_merge", func() (time.Duration, int) {
		const reps = 500
		a, b := stats.NewMetricSketch(400), stats.NewMetricSketch(400)
		for i, v := range values {
			if i%2 == 0 {
				a.Add(v)
			} else {
				b.Add(v)
			}
		}
		var d time.Duration
		for i := 0; i < reps; i++ {
			c := a.Clone()
			t0 := time.Now()
			c.Merge(b)
			d += time.Since(t0)
		}
		return d, reps
	}), "us")
	return nil
}

// campaignProbes replays a campaign in-process through the campaign
// package's public API: a cold pass with one Worker goroutine per worker
// process of the CLI's cold pass (coldWorkers) into a fresh cache, then a
// warm pass with one Worker over that cache (between the two,
// between(spec, cache) runs when set). Both
// replays' merged.det.json must byte-equal the CLI's. campaign.idle_s is
// the CLI's warm wall time minus the warm replay's summed spans: process
// start-up and worker poll sleep.
func campaignProbes(e *env, specText string, cliWarm float64, cliDet []byte, profiled bool, between func(*campaign.Spec, *runcache.Cache) error) error {
	tr := e.tr
	var sp *campaign.Spec
	parse := probe(tr, "campaign.spec_parse", func() (time.Duration, int) {
		const reps = 200
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			sp = mustSpec(specText)
		}
		return time.Since(t0), reps
	})
	e.set("campaign.spec_parse_us", 1e-3*parse, "us")

	cache, err := runcache.Open(filepath.Join(e.work, "replay-cache"))
	if err != nil {
		return err
	}
	cliDet = bytes.TrimSuffix(cliDet, []byte("\n"))
	if _, res, err := replayCampaign(e, "cold", sp, cache, coldWorkers, profiled); err != nil {
		return err
	} else if !bytes.Equal(res.Det, cliDet) {
		e.oracle.reject("campaign cold replay", "in-process merged.det.json differs from the CLI's")
	}
	if profiled {
		// Self time is per simulated run: the warm replay's CPU time is
		// spread over the cold replay's cells.
		e.profRuns += len(sp.Cells())
	}
	if between != nil {
		if err := between(sp, cache); err != nil {
			return err
		}
	}
	before := cache.Stats()
	t, res, err := replayCampaign(e, "warm", sp, cache, 1, profiled)
	if err != nil {
		return err
	}
	if !bytes.Equal(res.Det, cliDet) {
		e.oracle.reject("campaign warm replay", "in-process merged.det.json differs from the CLI's")
	}
	delta := cache.Stats().Sub(before)
	e.set("campaign.init_ms", 1e3*t.init.Seconds(), "ms")
	e.set("campaign.merge_ms", 1e3*t.merge.Seconds(), "ms")
	e.set("campaign.idle_s", cliWarm-(parse*1e-9+(t.init+t.run+t.merge).Seconds()), "s")
	e.set("runcache.hit_ratio", float64(delta.Hits)/float64(max(delta.Lookups(), 1)), "ratio")

	dir, shards := filepath.Dir(res.DetPath), res.Manifest.Shards
	e.set("campaign.claim_us", 1e-3*probe(tr, "campaign.claim", func() (time.Duration, int) {
		reps := 20 * shards
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			c, ok, err := runcache.AcquireClaim(campaign.ClaimPath(dir, i%shards), "perfbench", time.Minute)
			if err != nil || !ok {
				e.oracle.reject("campaign.claim", fmt.Sprintf("ok=%v err=%v", ok, err))
				continue
			}
			c.Release()
		}
		return time.Since(t0), reps
	}), "us")

	snaps := make([]*obs.Snapshot, shards)
	for i := range snaps {
		if snaps[i], err = obs.ReadSnapshot(campaign.SnapPath(dir, i)); err != nil {
			return err
		}
	}
	var merged *obs.Snapshot
	e.set("obs.merge_snapshots_ms", 1e-6*probe(tr, "obs.merge_snapshots", func() (time.Duration, int) {
		const reps = 20
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			merged, err = obs.MergeSnapshots(snaps)
		}
		return time.Since(t0), reps
	}), "ms")
	if err != nil {
		return err
	}
	e.set("obs.det_json_ms", 1e-6*probe(tr, "obs.det_json", func() (time.Duration, int) {
		const reps = 20
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			merged.DeterministicJSON()
		}
		return time.Since(t0), reps
	}), "ms")

	setSelfTimes(e)
	return nil
}

// replaySpans is one in-process campaign pass's layer spans.
type replaySpans struct{ init, run, merge time.Duration }

// replayCampaign runs sp in a fresh directory with the given number of
// Worker goroutines sharing cache, then merges it. When profiled is set the
// pass runs under the CPU profile.
func replayCampaign(e *env, pass string, sp *campaign.Spec, cache *runcache.Cache, workers int, profiled bool) (t replaySpans, res *campaign.Result, err error) {
	tr := e.tr
	var m *campaign.Manifest
	dir := filepath.Join(e.work, "replay-"+pass)
	timed := func(name string, fn func() error) (time.Duration, error) {
		id := tr.begin(name)
		t0 := time.Now()
		err := fn()
		tr.end(id, 1)
		return time.Since(t0), err
	}
	if profiled {
		if err := e.prof.start(); err != nil {
			return t, nil, err
		}
		defer func() {
			if perr := e.prof.stop(); err == nil {
				err = perr
			}
		}()
	}
	root := tr.begin("bench.campaign_replay_" + pass)
	defer tr.end(root, 0)
	if t.init, err = timed("campaign.init", func() (err error) { m, sp, err = campaign.Init(dir, sp, false); return err }); err != nil {
		return t, nil, err
	}
	if t.run, err = timed("campaign.worker_run", func() error {
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				w := &campaign.Worker{Dir: dir, Manifest: m, Spec: sp, Cache: cache, Owner: fmt.Sprintf("perfbench-%d", i)}
				_, errs[i] = w.Run(context.Background())
			}(i)
		}
		wg.Wait()
		return errors.Join(errs...)
	}); err != nil {
		return t, nil, err
	}
	if t.merge, err = timed("campaign.merge", func() (err error) { res, err = campaign.Merge(dir, m, sp); return err }); err != nil {
		return t, nil, err
	}
	return t, res, nil
}

// selfLayers are the layers whose CPU self time every workload's profiled
// work includes. The others (campaign, obs and runcache in campaign_grid's
// warm replay, and packages too small to sample reliably) are noted in
// self_ms_other: a per-layer metric must be reported on every workload, and
// a bypassed layer would read a constant 0.
var selfLayers = []string{"sim", "netem", "tcp", "iperf", "gamestream", "trace", "packet", "units", "experiment", "runtime"}

// setSelfTimes reports each layer's CPU self time per profiled simulated
// run, in ms, and notes the span count per layer and the other profiled
// packages' self time.
func setSelfTimes(e *env) {
	runs := float64(max(e.profRuns, 1))
	for _, layer := range selfLayers {
		e.set(layer+".self_ms", 1e-6*float64(e.prof.ns[layer])/runs, "ms")
	}
	e.note("self_ms_runs", e.profRuns)
	other := map[string]float64{}
	for layer, ns := range e.prof.ns {
		if !slices.Contains(selfLayers, layer) {
			other[layer] = 1e-6 * float64(ns) / runs
		}
	}
	e.note("self_ms_other", other)
	for layer, n := range e.tr.spanCounts() {
		e.note(layer+".spans", n)
	}
}

// probe runs fn in a span and returns nanoseconds per operation.
func probe(tr *tracer, name string, fn func() (time.Duration, int)) float64 {
	id := tr.begin(name)
	d, ops := fn()
	tr.end(id, ops)
	return float64(d.Nanoseconds()) / float64(max(ops, 1))
}

func bestOf(n int, fn func() time.Duration) time.Duration {
	best := fn()
	for i := 1; i < n; i++ {
		best = min(best, fn())
	}
	return best
}

// dispatch times Schedule+Run on an engine holding depth pending events:
// every dispatched event schedules its successor until n have run.
func dispatch(depth, n int) (time.Duration, int) {
	eng := sim.NewEngine(1)
	rng := sim.NewRNG(7)
	left := n
	var fire func()
	fire = func() {
		if left > 0 {
			left--
			eng.Schedule(time.Duration(1+rng.Intn(1000))*time.Microsecond, fire)
		}
	}
	for i := 0; i < depth; i++ {
		eng.Schedule(time.Duration(1+rng.Intn(1000))*time.Microsecond, fire)
	}
	t0 := time.Now()
	eng.Run(sim.End)
	return time.Since(t0), int(eng.Processed())
}

// timerReset times Timer.Reset (an in-place heap move) on an engine holding
// depth pending events.
func timerReset(depth, n int) (time.Duration, int) {
	eng := sim.NewEngine(1)
	rng := sim.NewRNG(7)
	for i := 0; i < depth; i++ {
		eng.Schedule(time.Hour+time.Duration(rng.Intn(1_000_000))*time.Microsecond, func() {})
	}
	timers := make([]*sim.Timer, 256)
	for i := range timers {
		timers[i] = sim.NewTimer(eng, func() {})
		timers[i].Reset(time.Duration(1+rng.Intn(100_000)) * time.Microsecond)
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		timers[i&255].Reset(time.Duration(1+rng.Intn(100_000)) * time.Microsecond)
	}
	return time.Since(t0), n
}

// pktRec is one packet the bottleneck router forwarded.
type pktRec struct {
	at   sim.Time
	size int
	seq  int64
	flow packet.FlowID
	src  packet.Addr
	dst  packet.Addr
	kind packet.Kind
}

// capture runs cfg once with an OnPacket tap and keeps the first
// maxCapture packets the bottleneck router forwarded.
func capture(tr *tracer, cfg experiment.RunConfig) []pktRec {
	recs := make([]pktRec, 0, 1<<16)
	cfg.OnPacket = func(at sim.Time, p *packet.Packet) {
		if len(recs) < maxCapture {
			recs = append(recs, pktRec{at, p.Size, p.Seq, p.Flow, p.Src, p.Dst, p.Kind})
		}
	}
	id := tr.begin("experiment.run_captured")
	experiment.Run(cfg)
	tr.end(id, len(recs))
	return recs
}

// replay injects recs at their original times into the handler build
// returns (nil: straight into the sink) and times the engine run.
func replay(recs []pktRec, build func(*sim.Engine, *packet.Pool, packet.Handler) packet.Handler) time.Duration {
	eng := sim.NewEngine(1)
	pool := packet.NewPool()
	var sink packet.Handler = packet.HandlerFunc(pool.Put)
	h := sink
	if build != nil {
		h = build(eng, pool, sink)
	}
	i := 0
	var inject func()
	inject = func() {
		at := recs[i].at
		for i < len(recs) && recs[i].at == at {
			r := &recs[i]
			p := pool.Get()
			p.ID, p.Flow, p.Kind, p.Src, p.Dst = uint64(i), r.flow, r.kind, r.src, r.dst
			p.Size, p.Seq, p.SentAt = r.size, r.seq, at
			h.Handle(p)
			i++
		}
		if i < len(recs) {
			eng.ScheduleAt(recs[i].at, inject)
		}
	}
	eng.ScheduleAt(recs[0].at, inject)
	t0 := time.Now()
	eng.Run(sim.End)
	return time.Since(t0)
}

// bulk times one TCP bulk transfer over a 25 Mb/s dumbbell with the given
// drop-tail queue for 10 simulated seconds; ops is delivered segments.
func bulk(alg string, queue units.ByteSize, rtt time.Duration) (time.Duration, int) {
	eng := sim.NewEngine(1)
	var ids uint64
	rcvRouter, sndRouter := netem.NewRouter(), netem.NewRouter()
	pool := packet.NewPool()
	q := netem.NewDropTail(queue)
	q.SetDropCallback(pool.Put)
	shaper := netem.NewShaper(eng, units.Mbps(25), 2*packet.MTU, q, netem.NewDelay(eng, rtt/2, rcvRouter))
	snd := netem.NewHost(eng, 100, shaper, &ids)
	rcv := netem.NewHost(eng, 200, netem.NewDelay(eng, rtt/2, sndRouter), &ids)
	snd.SetPool(pool)
	rcv.SetPool(pool)
	sndRouter.Route(snd.Addr, snd)
	rcvRouter.Route(rcv.Addr, rcv)
	s := tcp.NewSender(snd, 1, rcv.Addr, tcp.New(alg))
	r := tcp.NewReceiver(rcv, 1, snd.Addr)
	t0 := time.Now()
	s.Start()
	eng.Run(sim.At(10 * time.Second))
	return time.Since(t0), int(r.BytesReceived / packet.MSS)
}

// restarts times iperf.Flow.Restart+Stop, the population slot-reuse path.
// Both hosts send into a sink, so each restart's initial window costs its
// emission but schedules no deliveries.
func restarts(n int) (time.Duration, int) {
	eng := sim.NewEngine(1)
	var ids uint64
	pool := packet.NewPool()
	sink := packet.HandlerFunc(pool.Put)
	srv := netem.NewHost(eng, 1, sink, &ids)
	cli := netem.NewHost(eng, 2, sink, &ids)
	srv.SetPool(pool)
	cli.SetPool(pool)
	f := iperf.New(srv, cli, 1, tcp.AlgCubic, sim.At(500*time.Millisecond))
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f.Restart(tcp.AlgCubic)
		f.Stop()
	}
	return time.Since(t0), n
}

// frames times a stadia Server+Client session on a clean 1 Gb/s path for
// 30 simulated seconds; ops is frames sent.
func frames(rtt time.Duration) (time.Duration, int) {
	eng := sim.NewEngine(1)
	var ids uint64
	profile := gamestream.ProfileFor(gamestream.Stadia)
	var srvHost, cliHost *netem.Host
	fwd := netem.NewDelay(eng, rtt/2, packet.HandlerFunc(func(p *packet.Packet) { cliHost.Handle(p) }))
	shaper := netem.NewShaper(eng, units.Gbps(1), 125*units.KB, netem.NewDropTail(10*units.MB), fwd)
	rev := netem.NewDelay(eng, rtt/2, packet.HandlerFunc(func(p *packet.Packet) { srvHost.Handle(p) }))
	srvHost = netem.NewHost(eng, 1, shaper, &ids)
	cliHost = netem.NewHost(eng, 2, rev, &ids)
	server := gamestream.NewServer(srvHost, 1, 2, profile, eng.Rand().Fork())
	gamestream.NewClient(cliHost, 1, 1, profile)
	t0 := time.Now()
	server.Start()
	eng.Run(sim.At(30 * time.Second))
	return time.Since(t0), int(server.FramesSent)
}
