# Standard targets for the flatnet reproduction.

GO ?= go

.PHONY: all build vet fmtcheck onebuilder oneloop onehook oneslab test race check checksweep nocd-smoke benchall flatbench-check bench-record bench-diff figs quickfigs fuzz clean

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
		internal/sweep internal/nocsvc cmd/flatsim cmd/flattopo cmd/sweep --include='*.go' | grep -v _test.go); \
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
# callback; no Go file outside bench/ may call the single-slot
# OnDeliver/OnMaterialize or the in-memory LoadTrace replay; and no
# internal/sim file but trace.go/tracejsonl.go may call InjectAt: trace
# replay is its one user, and a harness that tracks its own injections
# (RunClosedLoop, RunCollective) starts transfers.
onehook:
	@out=$$(grep -nE 'telemetry\.|n\.tracer|n\.checks|n\.probes\.' internal/sim/*.go | grep -vE '^internal/sim/probes\.go:|_test\.go:'); \
	if [ -n "$$out" ]; then echo "observe the pipeline through sim.Hooks, not:"; echo "$$out"; exit 1; fi
	@out=$$({ grep -nE 'onDeliver|onMaterialize' internal/sim/*.go | grep -v '_test\.go:'; \
		grep -rnE '\.(OnDeliver|OnMaterialize|LoadTrace)\(' --include='*.go' . | grep -v '^\./bench/'; }); \
	if [ -n "$$out" ]; then echo "watch packets through Hooks.Materialize/Deliver and replay through ReplayTrace, not:"; echo "$$out"; exit 1; fi
	@out=$$(grep -nE 'InjectAt\(' internal/sim/*.go | grep -vE '^internal/sim/(trace|tracejsonl)\.go:|_test\.go:'); \
	if [ -n "$$out" ]; then echo "InjectAt is trace replay's; track an injection with StartTransfer, not:"; echo "$$out"; exit 1; fi

# oneslab fails if a channel graph's port table is allocated anywhere
# but topo.NewGraph, which carves every router's Out row from one slab per
# graph: a per-router make([]OutPort loop is back to one allocation per
# router (DESIGN §10). Graphs store no input side to allocate.
oneslab:
	@out=$$(grep -rnE 'make\(\[\](topo\.)?OutPort' --include='*.go' . | grep -vE '^\./internal/topo/graph\.go:|_test\.go:'); \
	if [ -n "$$out" ]; then echo "allocate port tables through topo.NewGraph, not:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# checksweep drives a short sanitized grid end to end: all five
# flattened-butterfly algorithms on benign and adversarial traffic with
# the runtime invariant checker attached to every job. The grid runs
# twice against one temporary cache. The second pass changes -measure, so
# every job misses the result cache and restores its warm-up from the
# warm store beside it, sanitized from the restored state on; the target
# fails if that pass reports 0 restores. A one-point grid on the §3.3
# folded Clos then checks that the network flags reach every family
# through spec.Flags.
checksweep:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	grid="-check -k 4 -n 2 -loads 0.2,0.6 -warmup 200 -sat=false -cache $$dir/c.jsonl" && \
	$(GO) build -o $$dir/sweep ./cmd/sweep && \
	$$dir/sweep $$grid -measure 200 >/dev/null && \
	{ $$dir/sweep $$grid -measure 300 2>$$dir/log >/dev/null; status=$$?; cat $$dir/log; test $$status = 0; } && \
	grep -qE 'warm snapshots: [1-9][0-9]* restores' $$dir/log || \
	{ echo "checksweep: the second pass failed or restored no warm snapshot"; exit 1; }; \
	$$dir/sweep -check -net foldedclos -k 4 -n 2 -algs "adaptive sequential" -patterns UR -loads 0.2 \
		-warmup 200 -measure 200 -sat=false >/dev/null || \
	{ echo "checksweep: the one-point folded Clos grid failed"; exit 1; }

# `test` and `race` run without -short, so they include analytic mode's
# orbit proofs: TestAnalyticOrbitMatchesSweep (every spec-table family at
# two sizes, Metrics == the all-sources sweep, BFS sources counted) and
# internal/spec's TestBuildEveryFamily (a table row without RouterOrbits
# fails). Neither test may grow a testing.Short() skip.
check: build vet fmtcheck onebuilder oneloop onehook oneslab test race checksweep

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
# operations stops it before anything is recorded. The record also holds
# the wall time of `paperfigs -quick -fig all`, total and per figure
# (median of three runs, ~15 s in all).
bench-record:
	@test -n "$(PR)" || { echo "usage: make bench-record PR=<number>"; exit 2; }
	for i in 1 2 3; do bash bench/run.sh -seed 1 -trace 1 -out .bench_build/record$$i.json || exit 1; done
	$(GO) build -o .bench_build/paperfigs ./cmd/paperfigs
	$(GO) run ./cmd/benchrecord -pr $(PR) -in .bench_build/record1.json,.bench_build/record2.json,.bench_build/record3.json -paperfigs .bench_build/paperfigs

# bench-diff prints the trajectory's last two records side by side: the
# end-to-end metrics of every workload, the per-layer rows that moved by
# more than 10 % and the paperfigs times, a move inside either record's
# spread marked noise.
bench-diff:
	@$(GO) run ./cmd/benchrecord -diff

# benchall runs the full benchmark suite (paper figures + ablations).
benchall:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every paper table and figure at full scale (~9 minutes on a
# 2-vCPU host; the result cache and warm store cut re-runs down sharply).
figs:
	$(GO) run ./cmd/paperfigs -out results -cache results/simcache.jsonl

# Reduced-scale smoke regeneration (~5 s on a 2-vCPU host, plus the compile).
quickfigs:
	$(GO) run ./cmd/paperfigs -quick -out results

# fuzz runs every fuzz target in the module for 30 s each.
fuzz:
	$(GO) test -fuzz=FuzzTraceReplay -fuzztime=30s ./internal/sim/
	$(GO) test -fuzz=FuzzInvariants -fuzztime=30s ./internal/sim/
	$(GO) test -fuzz=FuzzSnapshotRoundTrip -fuzztime=30s ./internal/sim/
	$(GO) test -fuzz=FuzzWorklistEquivalence -fuzztime=30s ./internal/sim/
	$(GO) test -fuzz=FuzzDecodeRequest -fuzztime=30s ./internal/nocsvc/
	$(GO) test -fuzz=FuzzDecodeResponse -fuzztime=30s ./internal/nocsvc/
	$(GO) test -fuzz=FuzzSlimFlyGraph -fuzztime=30s ./internal/topo/
	$(GO) test -fuzz=FuzzLaplacianApply -fuzztime=30s ./internal/analysis/

clean:
	$(GO) clean ./...
