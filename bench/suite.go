package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// printMetrics prints each metric by name with its unit, direction, sample
// count, quartiles, extremes and regression bound (end-to-end metrics), or
// the end-to-end metric it should move (per-layer metrics).
func printMetrics(w io.Writer, metrics map[string]value, det detail) {
	defs := endToEnd
	if det.Traced {
		defs = perLayer
	}
	for _, m := range defs {
		v, ok := metrics[m.Name]
		if !ok || (det.Traced && v.Value == 0) {
			continue
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-6s %-6s", m.Name, v.Value, m.Unit, m.Better)
		if s, ok := det.Samples[m.Name]; ok {
			fmt.Fprintf(w, " n=%-6d min=%-10.5g q1=%-10.5g median=%-10.5g q3=%-10.5g max=%-10.5g bound=%.0f%%", s.N, s.Min, s.Q1, s.Median, s.Q3, s.Max, m.Bound*100)
		}
		if m.Moves.metric != "" {
			fmt.Fprintf(w, " → %s on %s", m.Moves.metric, m.Moves.workload)
		}
		fmt.Fprintln(w)
	}
	names := make([]string, 0, len(det.Extra))
	for name := range det.Extra {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := det.Extra[name]
		fmt.Fprintf(w, "  %-36s %14.6g (same run, not bounded) n=%d\n", name, s.Value, s.N)
	}
}

// childResult is one workload run in a child process.
type childResult struct {
	line   resultLine
	detail detail
}

// runChild runs one workload in a process of its own, so that peak_rss_mb
// is the workload's and nothing else's, and parses its last two lines.
func runChild(opt options, workload string, trace int) (childResult, error) {
	var res childResult
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(exe,
		"-workload", workload,
		"-seed", fmt.Sprint(opt.seed),
		"-seconds", fmt.Sprint(opt.seconds),
		"-trace", fmt.Sprint(trace),
		"-outdir", opt.outdir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last, prev string
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		prev, last = last, sc.Text()
	}
	if err := json.Unmarshal([]byte(last), &res.line); err != nil {
		if runErr != nil {
			return res, fmt.Errorf("%s: %w", workload, runErr)
		}
		return res, fmt.Errorf("%s: no result line: %w", workload, err)
	}
	if d, ok := strings.CutPrefix(prev, detailPrefix); ok {
		if err := json.Unmarshal([]byte(d), &res.detail); err != nil {
			return res, fmt.Errorf("%s: detail line: %w", workload, err)
		}
	}
	return res, nil
}

// manifest records the environment a set of results came from.
type manifest struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Git        string  `json:"git_describe"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func newManifest(opt options) manifest {
	m := manifest{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Git: "unknown", Seed: opt.seed, Seconds: opt.seconds}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
		m.Git = strings.TrimSpace(string(out))
	}
	return m
}

// metricReport is one metric of one workload in the -out file.
type metricReport struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Value  float64 `json:"value"`
	Median float64 `json:"median,omitempty"`
	Q1     float64 `json:"q1,omitempty"`
	Q3     float64 `json:"q3,omitempty"`
	N      int     `json:"n,omitempty"`
}

type workloadReport struct {
	Workload  string         `json:"workload"`
	Digest    string         `json:"sim_digest"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	EndToEnd  []metricReport `json:"end_to_end"`
	PerLayer  []metricReport `json:"per_layer,omitempty"`
	// TraceOverheadFrac is (untraced − traced work_per_s) ÷ untraced.
	TraceOverheadFrac *float64 `json:"trace_overhead_frac,omitempty"`
}

type suiteReport struct {
	Manifest  manifest         `json:"manifest"`
	Workloads []workloadReport `json:"workloads"`
}

func report(defs []metricDef, r childResult) []metricReport {
	var out []metricReport
	for _, m := range defs {
		v, ok := r.line.Metrics[m.Name]
		if !ok {
			continue
		}
		s := r.detail.Samples[m.Name]
		out = append(out, metricReport{m.Name, m.Unit, m.Better, m.Bound, v.Value, s.Median, s.Q1, s.Q3, s.N})
	}
	return out
}

// runSet runs every workload once untraced and, with opt.trace, once more
// traced, printing as it goes.
func runSet(opt options) (suiteReport, error) {
	rep := suiteReport{Manifest: newManifest(opt)}
	failed := 0
	for _, w := range workloads {
		plain, err := runChild(opt, w.name, 0)
		if err != nil {
			return rep, err
		}
		wr := workloadReport{Workload: w.name, Digest: plain.detail.Digest,
			Attempted: plain.line.Attempted, Failed: plain.line.Failed, EndToEnd: report(endToEnd, plain)}
		fmt.Printf("%s  (work: %s; op: %s)\n", w.name, w.work, w.op)
		printMetrics(os.Stdout, plain.line.Metrics, plain.detail)
		fmt.Printf("  %-36s %14.6g %-6s %-6s (failed %d of %d attempted) bound=0\n", "fail_frac",
			float64(plain.line.Failed)/float64(plain.line.Attempted), "ratio", "lower", plain.line.Failed, plain.line.Attempted)
		fmt.Printf("  sim_digest %s\n", plain.detail.Digest)
		for _, f := range plain.detail.Failures {
			fmt.Printf("  FAILED: %s\n", f)
		}
		failed += plain.line.Failed
		if opt.trace != 0 {
			traced, err := runChild(opt, w.name, 1)
			if err != nil {
				return rep, err
			}
			wr.PerLayer = report(perLayer, traced)
			fmt.Printf("  traced run → %s\n", traced.detail.Trace)
			printMetrics(os.Stdout, traced.line.Metrics, traced.detail)
			// Both runs measure for the same time, so the cost of tracing
			// shows as work not done.
			base := plain.line.Metrics["work_per_s"].Value
			if with, ok := traced.detail.Extra["work_per_s"]; ok && base > 0 {
				frac := (base - with.Value) / base
				wr.TraceOverheadFrac = &frac
				fmt.Printf("  %-36s %14.6g ratio  lower\n", "trace_overhead_frac", frac)
			}
			if traced.detail.Digest != plain.detail.Digest {
				failed++
				fmt.Printf("  FAILED: traced sim_digest %s differs from untraced %s\n", traced.detail.Digest, plain.detail.Digest)
			}
			failed += traced.line.Failed
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	if failed > 0 {
		return rep, fmt.Errorf("%d operations failed", failed)
	}
	return rep, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func runSuite(opt options) error {
	rep, err := runSet(opt)
	if opt.out != "" {
		if werr := writeJSON(opt.out, rep); werr != nil {
			return werr
		}
	}
	return err
}

// worsening is how much worse b is than a, as a share of a, for a metric
// whose better direction is given; negative when b is better.
func worsening(better string, a, b float64) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// disagreement is one end-to-end metric whose reported figures differ
// between two sets of runs by more than its bound.
type disagreement struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Best     float64 `json:"best"`
	Worst    float64 `json:"worst"`
	Bound    float64 `json:"bound"`
}

// agreement compares the sets per workload and metric: the worst set's
// figure may not be worse than the best set's by more than the metric's
// bound, and simulated digests must be identical.
func agreement(sets []suiteReport) []disagreement {
	var out []disagreement
	for wi, w := range sets[0].Workloads {
		for mi, m := range w.EndToEnd {
			best, worst := m.Value, m.Value
			for _, s := range sets[1:] {
				v := s.Workloads[wi].EndToEnd[mi].Value
				if worsening(m.Better, best, v) < 0 {
					best = v
				}
				if worsening(m.Better, worst, v) > 0 {
					worst = v
				}
			}
			if d := worsening(m.Better, best, worst); d > m.Bound || math.IsNaN(d) {
				out = append(out, disagreement{w.Workload, m.Name, best, worst, m.Bound})
			}
		}
		for _, s := range sets[1:] {
			if s.Workloads[wi].Digest != w.Digest {
				out = append(out, disagreement{Workload: w.Workload, Metric: "sim_digest"})
			}
		}
	}
	return out
}

// runRepeat runs the untraced set opt.repeat times and fails when two sets
// disagree: the check that the benchmark resolves its own bounds.
func runRepeat(opt options) error {
	opt.trace = 0
	var sets []suiteReport
	for i := 0; i < opt.repeat; i++ {
		fmt.Printf("== set %d of %d\n", i+1, opt.repeat)
		rep, err := runSet(opt)
		if err != nil {
			return err
		}
		sets = append(sets, rep)
	}
	bad := agreement(sets)
	err := writeJSON(filepath.Join(opt.outdir, "repeat.json"), struct {
		Sets          []suiteReport  `json:"sets"`
		Disagreements []disagreement `json:"disagreements"`
	}{sets, bad})
	if err != nil {
		return err
	}
	for _, d := range bad {
		fmt.Printf("DISAGREE %s %s: best %g, worst %g, bound %.0f%%\n", d.Workload, d.Metric, d.Best, d.Worst, d.Bound*100)
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d metrics disagree between sets by more than their bound", len(bad))
	}
	fmt.Printf("%d sets agree on every end-to-end metric within its bound\n", len(sets))
	return nil
}
