# Standard targets for the flatnet reproduction.

GO ?= go

.PHONY: all build vet fmtcheck onebuilder oneloop onehook test race check checksweep nocd-smoke benchall flatbench-check bench-record bench-diff figs quickfigs fuzz clean

# Tier-1 flow: build, static checks, tests, then the race detector over
# the whole module — the sweep engine's worker pool must stay race-clean.
all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmtcheck fails if any file needs gofmt.
fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# onebuilder fails if a topology or routing constructor is called from a
# front end instead of through internal/spec's family table. Every
# topology constructor lives in internal/topo (re-exported by flatnet).
onebuilder:
	@out=$$(grep -rnE '(topo|flatnet)\.(New(FlatFly|Butterfly|FoldedClos|Hypercube|SlimFly|Dragonfly|Torus|GHC)|TaperedClosForNodes)\(|(routing|flatnet)\.New[A-Za-z]*(Algorithm|Dest|Adaptive|ECube|DOR)\(' \
		internal/sweep internal/nocsvc cmd/flatsim cmd/flattopo --include='*.go' | grep -v _test.go); \
	if [ -n "$$out" ]; then echo "build networks through internal/spec, not:"; echo "$$out"; exit 1; fi

# oneloop fails if a run harness grows its own copy of the run skeleton
# (stop polling or Live accounting outside internal/sim/harness.go and
# live.go), or if a front end wires the sanitizer by hand instead of
# through check.Arm on a harness's Attach hook.
oneloop:
	@out=$$(grep -nE 'stopPollMask|livePoll|Live\.[A-Z]' internal/sim/*.go | grep -vE '^internal/sim/(harness|live)\.go:|_test\.go:'); \
	if [ -n "$$out" ]; then echo "run harnesses go through internal/sim/harness.go, not:"; echo "$$out"; exit 1; fi
	@out=$$(grep -rnE '(AttachChecker|check\.Attach)\(' cmd internal/sweep run.go --include='*.go' | grep -v _test.go); \
	if [ -n "$$out" ]; then echo "arm the sanitizer with check.Arm/flatnet.ArmCheck, not:"; echo "$$out"; exit 1; fi

# onehook fails if a pipeline observer or a packet callback grows its own
# attachment beside sim.Hooks: outside probes.go (which builds the probe
# and tracer hook sets) no internal/sim file may name the telemetry
# package or reach into an observer's state from the network; no
# internal/sim file may hold a single-slot onDeliver/onMaterialize
# callback; and no Go file outside bench/ may call the single-slot
# OnDeliver/OnMaterialize or the in-memory LoadTrace replay.
onehook:
	@out=$$(grep -nE 'telemetry\.|n\.tracer|n\.checks|n\.probes\.' internal/sim/*.go | grep -vE '^internal/sim/probes\.go:|_test\.go:'); \
	if [ -n "$$out" ]; then echo "observe the pipeline through sim.Hooks, not:"; echo "$$out"; exit 1; fi
	@out=$$({ grep -nE 'onDeliver|onMaterialize' internal/sim/*.go | grep -v '_test\.go:'; \
		grep -rnE '\.(OnDeliver|OnMaterialize|LoadTrace)\(' --include='*.go' . | grep -v '^\./bench/'; }); \
	if [ -n "$$out" ]; then echo "watch packets through Hooks.Materialize/Deliver and replay through ReplayTrace, not:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# checksweep drives a short sanitized grid end to end: all five
# flattened-butterfly algorithms on benign and adversarial traffic with
# the runtime invariant checker attached to every job.
checksweep:
	$(GO) run ./cmd/sweep -check -k 4 -n 2 -loads 0.2,0.6 \
		-warmup 200 -measure 200 -sat=false >/dev/null

# `test` and `race` run without -short, so they include analytic mode's
# orbit proofs: TestAnalyticOrbitMatchesSweep (every spec-table family at
# two sizes, Metrics == the all-sources sweep, BFS sources counted) and
# internal/spec's TestBuildEveryFamily (a table row without RouterOrbits
# fails). Neither test may grow a testing.Short() skip.
check: build vet fmtcheck onebuilder oneloop onehook test race checksweep

# nocd-smoke builds the real nocd binary, launches it on an ephemeral
# port, drives open -> batch_estimate -> stats -> close through the
# nocsvc/client package, and asserts the estimates agree with a direct
# flatnet.Run of the same configuration.
nocd-smoke:
	$(GO) test -run 'TestNocd' -count=1 -v ./cmd/nocd/

# flatbench-check vets and tests the flatbench module (bench/ is a Go
# module of its own, so `go build ./... && go test ./...` at the root
# does not cover it): an internal/... signature change that breaks the
# benchmark fails here instead of in the benchmark pipeline.
flatbench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench-record appends this checkout's flatbench numbers to the committed
# trajectory BENCH_flatbench.json (one record per PR: manifest, the four
# end-to-end metrics of every workload, the traced per-layer rows), so a
# PR's performance claim is a diff of that file: `make bench-record PR=16`.
# It runs the suite three times (~5 minutes each) and records each value as
# the median of the three with their min/max spread; a run with failed
# operations stops it before anything is recorded.
bench-record:
	@test -n "$(PR)" || { echo "usage: make bench-record PR=<number>"; exit 2; }
	for i in 1 2 3; do bash bench/run.sh -seed 1 -trace 1 -out .bench_build/record$$i.json || exit 1; done
	$(GO) run ./cmd/benchrecord -pr $(PR) -in .bench_build/record1.json,.bench_build/record2.json,.bench_build/record3.json

# bench-diff prints the trajectory's last two records side by side: the
# end-to-end metrics of every workload and the per-layer rows that moved
# by more than 10 %, a move inside either record's spread marked noise.
bench-diff:
	@$(GO) run ./cmd/benchrecord -diff

# benchall runs the full benchmark suite (paper figures + ablations).
benchall:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every paper table and figure at full scale (tens of minutes
# sequentially; the worker pool and result cache cut re-runs down sharply).
figs:
	$(GO) run ./cmd/paperfigs -out results -cache results/simcache.jsonl

# Reduced-scale smoke regeneration (~1 minute).
quickfigs:
	$(GO) run ./cmd/paperfigs -quick -out results

# fuzz runs every fuzz target in the module for 30 s each.
fuzz:
	$(GO) test -fuzz=FuzzTraceReplay -fuzztime=30s ./internal/sim/
	$(GO) test -fuzz=FuzzInvariants -fuzztime=30s ./internal/sim/
	$(GO) test -fuzz=FuzzSnapshotRoundTrip -fuzztime=30s ./internal/sim/
	$(GO) test -fuzz=FuzzWorklistEquivalence -fuzztime=30s ./internal/sim/
	$(GO) test -fuzz=FuzzDecodeRequest -fuzztime=30s ./internal/nocsvc/
	$(GO) test -fuzz=FuzzSlimFlyGraph -fuzztime=30s ./internal/topo/
	$(GO) test -fuzz=FuzzLaplacianApply -fuzztime=30s ./internal/analysis/

clean:
	$(GO) clean ./...
