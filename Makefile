# Verification entry points. `make verify` is the tier-1 gate plus the
# static and race checks that keep the concurrent sweep code honest; CI and
# pre-commit hooks should call it rather than re-listing the steps.

GO ?= go

.PHONY: verify build fmt-check test vet race bench bench-json bench-compare probe-demo fuzz-smoke cover-netem cover-runcache cover-obs cover-campaign impair-demo docs-check chaos-smoke campaign-smoke

# BENCH_N matches this PR's position in the stacked sequence; bump it when a
# later change re-baselines the trajectory file. BENCH_PREV is the baseline
# the bench-compare gate diffs against.
BENCH_N ?= 12
BENCH_PREV ?= 10

verify: build fmt-check vet test race cover-netem cover-runcache cover-obs cover-campaign

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Formatting gate: gofmt must have nothing to rewrite anywhere in the tree.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# The sweep runner, the observability sinks, the run cache, and the campaign
# coordinator are the only concurrent code in the repository; keep them
# race-clean. netem and tcp ride along: they are single-threaded by design,
# and -race on them proves a future refactor didn't quietly share an
# impairer or a sender across workers.
race:
	$(GO) test -race ./internal/experiment/... ./internal/sim/... ./internal/obs/... ./internal/netem/... ./internal/tcp/... ./internal/runcache/... ./internal/campaign/...

# Short coverage-guided sessions: the receiver-reassembly target, the
# three experiment-flag parsers (schedule/loss/probability), the
# scenario-file parser, and the campaign-spec parser. Corpora are checked
# in under internal/*/testdata/fuzz. Raise FUZZTIME (and PARSEFUZZTIME for
# the cheap string parsers) for a real local campaign.
FUZZTIME ?= 30s
PARSEFUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/tcp -run '^$$' -fuzz FuzzReceiverReassembly -fuzztime $(FUZZTIME)
	$(GO) test ./internal/experiment -run '^$$' -fuzz FuzzParseSchedule -fuzztime $(PARSEFUZZTIME)
	$(GO) test ./internal/experiment -run '^$$' -fuzz FuzzParseLoss -fuzztime $(PARSEFUZZTIME)
	$(GO) test ./internal/experiment -run '^$$' -fuzz FuzzParseProb -fuzztime $(PARSEFUZZTIME)
	$(GO) test ./internal/scenario -run '^$$' -fuzz FuzzParseScenario -fuzztime $(PARSEFUZZTIME)
	$(GO) test ./internal/campaign -run '^$$' -fuzz FuzzParseCampaign -fuzztime $(PARSEFUZZTIME)
	$(GO) test ./internal/campaign -run '^$$' -fuzz FuzzReadManifest -fuzztime $(PARSEFUZZTIME)
	$(GO) test ./internal/runcache -run '^$$' -fuzz FuzzReadClaim -fuzztime $(PARSEFUZZTIME)

# The impairment subsystem is the loss model under every CC validation
# claim; hold its statement coverage at >= 80%.
cover-netem:
	@$(GO) test -coverprofile=netem.cover.out ./internal/netem > /dev/null
	@$(GO) tool cover -func=netem.cover.out | awk '/^total:/ { gsub(/%/, "", $$3); \
		if ($$3 + 0 < 80) { printf "netem coverage %.1f%% < 80%%\n", $$3; exit 1 } \
		else printf "netem coverage %.1f%% (gate 80%%)\n", $$3 }'
	@rm -f netem.cover.out

# The run cache substitutes stored bytes for executions; a silent bug there
# corrupts every downstream table. Hold its statement coverage at >= 80%.
cover-runcache:
	@$(GO) test -coverprofile=runcache.cover.out ./internal/runcache > /dev/null
	@$(GO) tool cover -func=runcache.cover.out | awk '/^total:/ { gsub(/%/, "", $$3); \
		if ($$3 + 0 < 80) { printf "runcache coverage %.1f%% < 80%%\n", $$3; exit 1 } \
		else printf "runcache coverage %.1f%% (gate 80%%)\n", $$3 }'
	@rm -f runcache.cover.out

# The telemetry aggregator folds every campaign's metrics into the sketches
# the live endpoint and gsreport -telemetry serve; a folding bug biases every
# published quantile. Hold its statement coverage at >= 80%.
cover-obs:
	@$(GO) test -coverprofile=obs.cover.out ./internal/obs > /dev/null
	@$(GO) tool cover -func=obs.cover.out | awk '/^total:/ { gsub(/%/, "", $$3); \
		if ($$3 + 0 < 80) { printf "obs coverage %.1f%% < 80%%\n", $$3; exit 1 } \
		else printf "obs coverage %.1f%% (gate 80%%)\n", $$3 }'
	@rm -f obs.cover.out

# The campaign coordinator turns a spec into the merged telemetry every
# report consumes; a sharding or merge bug silently biases whole campaigns.
# Hold its statement coverage at >= 80%.
cover-campaign:
	@$(GO) test -short -coverprofile=campaign.cover.out ./internal/campaign > /dev/null
	@$(GO) tool cover -func=campaign.cover.out | awk '/^total:/ { gsub(/%/, "", $$3); \
		if ($$3 + 0 < 80) { printf "campaign coverage %.1f%% < 80%%\n", $$3; exit 1 } \
		else printf "campaign coverage %.1f%% (gate 80%%)\n", $$3 }'
	@rm -f campaign.cover.out

# One regeneration per benchmark target (reduced-size campaigns), then the
# fixed trajectory suite written as BENCH_$(BENCH_N).json (see README).
bench: bench-json
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

bench-json:
	$(GO) run ./cmd/gsbench -bench-json BENCH_$(BENCH_N).json

# Regression gate between the two newest checked-in trajectory files: fail
# on any >10% events_per_sec drop or any allocs_per_run growth. CI's
# bench-gate job runs this plus a freshly measured file against the
# checked-in baseline.
bench-compare:
	$(GO) run ./cmd/gsbench -bench-compare BENCH_$(BENCH_PREV).json BENCH_$(BENCH_N).json

# Documentation gate: every markdown link and backticked file reference in
# the root and docs/ markdown must resolve to a real file, and every
# shipped scenario and campaign file must parse to a cacheable
# configuration.
docs-check:
	$(GO) test -run 'TestDocsLinksResolve|TestScenarioFilesParse|TestCampaignFilesParse' -count=1 .

# A sharded campaign end to end at CI size: the coordinator spawns two
# gscampaign worker processes over a throwaway directory, sweeps up and
# merges their shards, and gsreport renders the merged telemetry. The
# second pass resumes the finished campaign (a pure re-merge) and must
# leave the deterministic artefact byte-identical. The third runs the spec
# into a fresh directory over the now-warm cache with two workers — the
# path where workers wait on each other's millisecond shards — and must
# merge the same bytes.
campaign-smoke:
	rm -rf campaign-smoke.dir campaign-smoke.warm
	printf '%s\n' '[campaign]' 'name = ci-smoke' 'seed = 42' 'iterations = 2' \
		'scale = 0.05' 'shards = 4' '' '[grid]' 'systems = stadia, luna' \
		'ccas = cubic, solo' 'capacities = 25mbit' 'queue_mults = 2' \
		> campaign-smoke.campaign
	$(GO) run ./cmd/gscampaign -spec campaign-smoke.campaign -dir campaign-smoke.dir -workers 2
	cp campaign-smoke.dir/merged.det.json campaign-smoke.det1.json
	$(GO) run ./cmd/gscampaign -dir campaign-smoke.dir -resume > /dev/null
	cmp campaign-smoke.det1.json campaign-smoke.dir/merged.det.json
	$(GO) run ./cmd/gsreport -campaign campaign-smoke.dir
	$(GO) run ./cmd/gscampaign -spec campaign-smoke.campaign -dir campaign-smoke.warm \
		-cache campaign-smoke.dir/cache -workers 2 > /dev/null
	cmp campaign-smoke.det1.json campaign-smoke.warm/merged.det.json
	rm -rf campaign-smoke.dir campaign-smoke.warm campaign-smoke.campaign campaign-smoke.det1.json

# The EXPERIMENTS.md chaos example at CI size: a seeded campaign through a
# throwaway cache, rendered as the per-invariant verdict table, then
# re-run to prove the 100% cache hit. Exit status is non-zero on any
# invariant violation.
chaos-smoke:
	rm -rf chaos-smoke.cache
	$(GO) run ./cmd/gssim -chaos -chaos-runs 40 -seed 42 -scale 0.05 \
		-cache chaos-smoke.cache -invariants-out chaos-smoke.json
	$(GO) run ./cmd/gssim -chaos -chaos-runs 40 -seed 42 -scale 0.05 \
		-cache chaos-smoke.cache
	$(GO) run ./cmd/gsreport -invariants chaos-smoke.json
	rm -rf chaos-smoke.cache chaos-smoke.json

# The EXPERIMENTS.md worked example: one probed Cubic-vs-BBR run plus the
# terminal summaries of the exported CC and queue telemetry.
probe-demo:
	$(GO) run ./cmd/gssim -cca cubic,bbr -probe -probe-out demo > demo.trace.csv
	$(GO) run ./cmd/gsreport -cc demo.cc.csv -queue demo.queue.csv

# The EXPERIMENTS.md impairment example: Gilbert-Elliott loss plus a mid-run
# link flap, with the loss episodes surfaced from the probe's drop log.
impair-demo:
	$(GO) run ./cmd/gssim -loss "ge:p=0.01,r=0.25" -jitter 2ms \
		-schedule "240s down; 242s up" -probe -probe-out impair \
		-runlog impair.jsonl > impair.trace.csv
	$(GO) run ./cmd/gsreport -drops impair.drops.csv
	$(GO) run ./cmd/gsreport -runlog impair.jsonl
