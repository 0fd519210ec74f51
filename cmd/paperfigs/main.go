// Command paperfigs regenerates every table and figure of the paper's
// evaluation and writes the data series to text files.
//
// Usage:
//
//	paperfigs [-fig all|2|t1|t2|t3|t4|t5|4a|4b|5|6a|6b|7|10|11|12a|12b|13|14|15]
//	          [-out results] [-quick] [-parallel] [-workers N] [-cache file]
//
// -fig also accepts a comma-separated list (e.g. -fig 4a,4b,5). Analytic
// figures (2, 7, 10, 11, 13, 15 and the tables) are exact and cheap.
// Simulation figures (4, 5, 6, 12) run the cycle-accurate simulator
// through the internal/sweep engine: -parallel (default on) fans
// independent load points across a worker pool sized by -workers
// (default: GOMAXPROCS, at least 2) with bit-identical results to a
// sequential run, and -cache names a JSON-lines result cache so re-runs
// skip already-computed points. -quick substitutes a reduced-scale
// network for a fast smoke run. Output columns are tab-separated with a
// header row. Failures are collected per figure and reported together
// rather than aborting the remaining figures.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"flatnet/internal/sim"
	"flatnet/internal/sweep"
	"flatnet/internal/telemetry"
)

func main() {
	fig := flag.String("fig", "all", "figure/table id (or comma-separated ids) to regenerate, or 'all'")
	out := flag.String("out", "results", "output directory")
	quick := flag.Bool("quick", false, "reduced-scale smoke run for simulation figures")
	parallel := flag.Bool("parallel", true, "run simulation jobs on a worker pool")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS, at least 2)")
	cachePath := flag.String("cache", "", "JSON-lines result cache file ('' disables caching; also enables the warm-snapshot store beside it)")
	listen := flag.String("listen", "", "serve live metrics (/debug/vars, /debug/pprof) on this address during the run")
	flag.Parse()

	eng, closeCache, err := newEngine(*parallel, *workers, *cachePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperfigs:", err)
		os.Exit(1)
	}
	if *listen != "" {
		srv, err := serveTelemetry(*listen, eng)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperfigs:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "paperfigs: serving metrics on http://%s/debug/vars\n", srv.Addr())
	}
	runErr := run(*fig, *out, *quick, eng)
	reportEngine(eng)
	closeCache()
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "paperfigs:", runErr)
		os.Exit(1)
	}
}

// newEngine builds the sweep engine the simulation figures share. With
// -parallel off the pool is a single worker: the sequential reference
// path. The default parallel pool is never smaller than two workers so
// pool behavior is exercised even on single-core hosts.
func newEngine(parallel bool, workers int, cachePath string) (eng *sweep.Engine, closeCache func(), err error) {
	w := 1
	if parallel {
		w = workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
			if w < 2 {
				w = 2
			}
		}
	}
	eng = &sweep.Engine{Workers: w, Progress: os.Stderr}
	closeCache = func() {}
	if cachePath != "" {
		cache, err := sweep.OpenCache(cachePath)
		if err != nil {
			return nil, nil, err
		}
		eng.Cache = cache
		closeCache = func() { cache.Close() }
		// The warm-snapshot store lives beside the JSONL cache: each
		// load point's warm-up is simulated once, then restored on
		// every re-measurement of that point.
		ws, err := sweep.OpenWarmStore(cachePath + ".warm")
		if err != nil {
			closeCache()
			return nil, nil, err
		}
		eng.Warm = ws
	}
	return eng, closeCache, nil
}

// telemetryReg is process-global: the expvar namespace is write-once,
// so every run in the process shares one registry.
var telemetryReg = telemetry.NewRegistry()

// serveTelemetry publishes the engine's live counters and the simulator's
// process-wide counters, then starts the metrics endpoint.
func serveTelemetry(addr string, eng *sweep.Engine) (*telemetry.Server, error) {
	eng.PublishVars(telemetryReg)
	telemetryReg.Gauge("sim_live", func() any { return sim.Live.Snapshot() })
	if err := telemetryReg.Publish("flatnet"); err != nil {
		return nil, err
	}
	return telemetry.Serve(addr)
}

// reportEngine logs the engine's lifetime job and per-worker accounting,
// the evidence trail for parallel utilization and cache effectiveness.
func reportEngine(eng *sweep.Engine) {
	st := eng.Stats()
	if st.Jobs == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "paperfigs: engine totals: %d jobs — %d simulated, %d cache hits, %d deduped, %d skipped, %d failed\n",
		st.Jobs, st.Simulated, st.CacheHits, st.Deduped, st.Skipped, st.Failed)
	if eng.Cache != nil {
		cs := eng.Cache.Stats()
		fmt.Fprintf(os.Stderr, "paperfigs: cache: %d hits, %d misses, %d entries, %d corrupt lines dropped\n",
			cs.Hits, cs.Misses, cs.Entries, cs.Corrupt)
	}
	if eng.Warm != nil {
		fmt.Fprintf(os.Stderr, "paperfigs: warm snapshots: %d restores, %d saved, %d warm-up cycles skipped\n",
			st.WarmHits, st.WarmPuts, st.WarmCyclesSaved)
	}
	busy := 0
	for _, w := range st.Workers {
		if w.Jobs > 0 {
			busy++
		}
	}
	fmt.Fprintf(os.Stderr, "paperfigs: workers utilized: %d of %d\n", busy, len(st.Workers))
}

// figures maps figure ids to generator functions.
var figures = map[string]func(w *os.File, quick bool) error{
	"2":   fig2,
	"3":   fig3,
	"t1":  table1,
	"t2":  table2,
	"t3":  table3,
	"t4":  table4,
	"t5":  table5,
	"4a":  func(w *os.File, q bool) error { return fig4(w, q, "UR") },
	"4b":  func(w *os.File, q bool) error { return fig4(w, q, "WC") },
	"5":   fig5,
	"6a":  func(w *os.File, q bool) error { return fig6(w, q, "UR") },
	"6b":  func(w *os.File, q bool) error { return fig6(w, q, "WC") },
	"7":   fig7,
	"89":  fig89,
	"10":  fig10,
	"11":  fig11,
	"12a": func(w *os.File, q bool) error { return fig12(w, q, "VAL") },
	"12b": func(w *os.File, q bool) error { return fig12(w, q, "MIN AD") },
	"13":  fig13,
	"14":  fig14,
	"15":  fig15,
}

// order lists figure ids in paper order for -fig all.
var order = []string{
	"2", "3", "t1", "4a", "4b", "5", "6a", "6b", "t2", "7", "t3", "89", "10",
	"11", "t4", "12a", "12b", "13", "14", "t5", "15",
}

// run regenerates the requested figures into outDir using eng for the
// simulation figures (nil = sequential). A failing figure does not stop
// the rest: every failure is collected and the aggregate returned.
func run(fig, outDir string, quick bool, eng *sweep.Engine) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	prev := engine
	engine = eng
	defer func() { engine = prev }()

	var ids []string
	for _, id := range strings.Split(fig, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = order
	}
	var errs []error
	for _, id := range ids {
		if err := runOne(id, outDir, quick); err != nil {
			errs = append(errs, err)
			fmt.Fprintf(os.Stderr, "paperfigs: figure %s failed: %v (continuing)\n", id, err)
		}
	}
	return errors.Join(errs...)
}

// runOne regenerates a single figure.
func runOne(id, outDir string, quick bool) error {
	gen, ok := figures[id]
	if !ok {
		known := make([]string, 0, len(figures))
		for k := range figures {
			known = append(known, k)
		}
		sort.Strings(known)
		return fmt.Errorf("unknown figure %q (known: %s)", id, strings.Join(known, " "))
	}
	name := filepath.Join(outDir, "fig"+id+".txt")
	if strings.HasPrefix(id, "t") {
		name = filepath.Join(outDir, "table"+id[1:]+".txt")
	}
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "generating %s -> %s\n", id, name)
	if err := gen(f, quick); err != nil {
		f.Close()
		return fmt.Errorf("figure %s: %w", id, err)
	}
	return f.Close()
}
