package experiments

// The paper's throughput and ordering claims about the simulation
// figures, one row each. The tests hold every row to its band on a
// quick-scale run of its figure (one test per figure) and on the
// committed full-scale series in results/ (TestClaimsDoc), which also
// renders EXPERIMENTS.md's paper-vs-measured tables from the same rows.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"flatnet/internal/analysis"
)

// claim is one quantitative claim of the paper about a simulation figure.
type claim struct {
	fig      string // figure id, a key of Figures
	quantity string
	paper    string // the paper's value as it states it, plus any known deviation
	// derived is the closed-form value at a scale; nil where none exists.
	derived func(figScale) float64
	// band is the two-sided range the measured value must lie in: a
	// multiple of derived when there is one, otherwise absolute (a
	// throughput or a ratio).
	band    [2]float64
	measure func(figs) float64
}

// Closed forms at a figure's scale. Fig. 6's folded Clos is 2:1 tapered
// (k terminals and k/2 uplinks per leaf); Fig. 14 is a 4-ary 2-flat.
func urCapacity(figScale) float64      { return analysis.FlatFlyURCapacity() }
func wcMinimal(s figScale) float64     { return analysis.FlatFlyWCMinimal(s.k) }
func wcNonMin(s figScale) float64      { return analysis.FlatFlyWCNonMinimal(s.k) }
func valiantUR(s figScale) float64     { return analysis.ValiantURThroughput(s.k) }
func butterflyWC(s figScale) float64   { return analysis.ButterflyWCThroughput(s.k) }
func fig14WCMin(figScale) float64      { return analysis.FlatFlyWCMinimal(4) }
func taperedClosUR(s figScale) float64 { return analysis.FoldedClosURThroughput(s.k, s.k/2, s.nodes()) }

// Columns of Fig. 5's table (batch, VAL, UGAL, UGAL-S, CLOS AD) and of
// Fig. 12's (k, n', k', saturation, low-load latency).
const (
	colVAL, colUGAL, colUGALS, colClosAD = 1, 2, 3, 4
	colSat, colLat                       = 3, 4
)

var (
	ur     = [2]float64{0.90, 1.00} // of capacity
	near1k = [2]float64{0.85, 1.15} // of 1/k
	nonMin = [2]float64{0.90, 1.10} // of (k-1)/2k
	val    = [2]float64{0.80, 1.00} // of VAL's 50%
)

// shrink is batch size's effect on one Fig. 5 column: normalized latency
// at the largest batch over that at the smallest.
func shrink(col int) func(figs) float64 { return ratio(cell("5", -1, col), cell("5", 0, col)) }

// claims is the table. Series indices follow the figures' series order:
// Fig. 4 is MIN AD, VAL, UGAL, UGAL-S, CLOS AD; Fig. 6 is flattened
// butterfly, butterfly, folded Clos, hypercube.
var claims = []claim{
	{"4a", "MIN AD saturation, UR", "100%", urCapacity, ur, sat("4a", 0)},
	{"4a", "VAL saturation, UR", "50%", valiantUR, val, sat("4a", 1)},
	{"4a", "UGAL saturation, UR", "100%", urCapacity, ur, sat("4a", 2)},
	{"4a", "UGAL-S saturation, UR", "100%", urCapacity, ur, sat("4a", 3)},
	{"4a", "CLOS AD saturation, UR", "100%", urCapacity, ur, sat("4a", 4)},
	{"4b", "MIN AD saturation, WC", "1/k (~3%)", wcMinimal, near1k, sat("4b", 0)},
	{"4b", "VAL saturation, WC", "50%", wcNonMin, nonMin, sat("4b", 1)},
	{"4b", "UGAL saturation, WC", "50%", wcNonMin, nonMin, sat("4b", 2)},
	{"4b", "UGAL-S saturation, WC", "50%", wcNonMin, nonMin, sat("4b", 3)},
	{"4b", "CLOS AD saturation, WC", "50%", wcNonMin, nonMin, sat("4b", 4)},

	{"5", "UGAL ÷ UGAL-S, smallest batch", "> 1", nil, [2]float64{1.5, 4}, ratio(cell("5", 0, colUGAL), cell("5", 0, colUGALS))},
	{"5", "CLOS AD ÷ UGAL-S, smallest batch", "< 1", nil, [2]float64{0.7, 1}, ratio(cell("5", 0, colClosAD), cell("5", 0, colUGALS))},
	{"5", "UGAL ÷ CLOS AD gap, largest ÷ smallest batch", "< 1", nil, [2]float64{0.2, 0.9}, ratio(shrink(colUGAL), shrink(colClosAD))},
	{"5", "VAL, largest ÷ smallest batch", "< 1", nil, [2]float64{0.05, 0.6}, shrink(colVAL)},
	{"5", "UGAL, largest ÷ smallest batch", "< 1", nil, [2]float64{0.05, 0.6}, shrink(colUGAL)},
	{"5", "UGAL-S, largest ÷ smallest batch", "< 1", nil, [2]float64{0.05, 0.6}, shrink(colUGALS)},
	{"5", "CLOS AD, largest ÷ smallest batch", "< 1", nil, [2]float64{0.05, 0.6}, shrink(colClosAD)},

	{"6a", "flattened butterfly saturation, UR", "100%", urCapacity, ur, sat("6a", 0)},
	{"6a", "butterfly saturation, UR", "100%", nil, ur, sat("6a", 1)},
	{"6a", "folded Clos (2:1 taper) saturation, UR", "50%", taperedClosUR, [2]float64{0.90, 1.10}, sat("6a", 2)},
	{"6a", "hypercube saturation, UR", "100%", nil, ur, sat("6a", 3)},
	{"6a", "hypercube ÷ flattened butterfly latency, lowest load", "> 1", nil, [2]float64{1.5, 4}, ratio(cell("6a", 0, 4), cell("6a", 0, 1))},
	{"6b", "flattened butterfly saturation, WC", "50%", wcNonMin, nonMin, sat("6b", 0)},
	{"6b", "butterfly saturation, WC", "1/k (~3%)", butterflyWC, near1k, sat("6b", 1)},
	{"6b", "folded Clos (2:1 taper) saturation, WC", "50%", nil, [2]float64{0.45, 0.55}, sat("6b", 2)},
	{"6b", "hypercube saturation, WC", "50% — **deviation:** ~0.98 measured at both scales, pinned here; ROADMAP item 1(d)",
		nil, [2]float64{0.95, 1}, sat("6b", 3)},

	{"12a", "VAL saturation, lowest over n'", "50%", valiantUR, val, fold("12a", colSat, math.Min)},
	{"12a", "VAL saturation, highest over n'", "50%", valiantUR, val, fold("12a", colSat, math.Max)},
	{"12a", "VAL low-load latency, smallest rise per n' step", "> 1", nil, [2]float64{1.1, 2.5}, minRise("12a", colLat)},
	{"12b", "MIN AD saturation, n'=1", "100%", urCapacity, ur, cell("12b", 0, colSat)},
	{"12b", "MIN AD saturation, highest n' ÷ n'=1", "~0.8", nil, [2]float64{0.4, 0.9}, ratio(cell("12b", -1, colSat), cell("12b", 0, colSat))},
	{"12b", "MIN AD low-load latency, smallest rise per n' step", "> 1", nil, [2]float64{1.1, 2.5}, minRise("12b", colLat)},

	{"14", "(a) baseline MIN saturation, WC", "1/k", fig14WCMin, near1k, fig14WC(0)},
	{"14", "(a) redundant channels ÷ baseline, MIN WC", "2", nil, [2]float64{1.8, 2.2}, ratio(fig14WC(1), fig14WC(0))},
}

// bounds is the absolute range the row's measured value must lie in at s.
func (c claim) bounds(s figScale) (lo, hi float64) {
	if c.derived == nil {
		return c.band[0], c.band[1]
	}
	d := c.derived(s)
	return c.band[0] * d, c.band[1] * d
}

// claimFigs lists, in table order, the figures the claims read.
func claimFigs() []string {
	var ids []string
	for _, c := range claims {
		if !slices.Contains(ids, c.fig) {
			ids = append(ids, c.fig)
		}
	}
	return ids
}

// figFile is one rendered simulation figure as the claims read it: the
// "# <name>\t<value>" saturation lines in series order, the data table
// (header and rows, cells verbatim) and every line of the file.
type figFile struct {
	sats   []float64
	header []string
	rows   [][]string
	lines  []string
}

// figs holds rendered figures by id.
type figs map[string]*figFile

// readFigs parses dir/fig<id>.txt for every id. The data table ends at
// the first blank line, where the ASCII chart starts.
func readFigs(dir string, ids []string) (figs, error) {
	f := figs{}
	for _, id := range ids {
		data, err := os.ReadFile(filepath.Join(dir, "fig"+id+".txt"))
		if err != nil {
			return nil, err
		}
		ff := &figFile{lines: strings.Split(string(data), "\n")}
		for _, line := range ff.lines {
			if rest, ok := strings.CutPrefix(line, "# "); ok {
				if name, v, ok := strings.Cut(rest, "\t"); ok && name != "" {
					ff.sats = append(ff.sats, num(v))
				}
			} else if line == "" {
				if ff.header != nil {
					break
				}
			} else if ff.header == nil {
				ff.header = strings.Split(line, "\t")
			} else {
				ff.rows = append(ff.rows, strings.Split(line, "\t"))
			}
		}
		f[id] = ff
	}
	return f, nil
}

// Measures. A missing or unparsable value ("sat") is NaN, which fails
// every band.

func num(s string) float64 {
	x, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return math.NaN()
	}
	return x
}

// sat is series i's saturation throughput in figure id.
func sat(id string, i int) func(figs) float64 {
	return func(f figs) float64 {
		if i < len(f[id].sats) {
			return f[id].sats[i]
		}
		return math.NaN()
	}
}

// cell is column col of table row row in figure id; a negative row
// counts from the end.
func cell(id string, row, col int) func(figs) float64 {
	return func(f figs) float64 {
		rows, r := f[id].rows, row
		if r < 0 {
			r += len(rows)
		}
		if r < 0 || r >= len(rows) || col >= len(rows[r]) {
			return math.NaN()
		}
		return num(rows[r][col])
	}
}

func ratio(a, b func(figs) float64) func(figs) float64 {
	return func(f figs) float64 { return a(f) / b(f) }
}

// fold reduces column col of figure id's table with pick.
func fold(id string, col int, pick func(a, b float64) float64) func(figs) float64 {
	return func(f figs) float64 {
		v := cell(id, 0, col)(f)
		for i := 1; i < len(f[id].rows); i++ {
			v = pick(v, cell(id, i, col)(f))
		}
		return v
	}
}

// minRise is the smallest ratio of consecutive cells in column col of
// figure id's table: above 1 means the column rises at every step.
func minRise(id string, col int) func(figs) float64 {
	return func(f figs) float64 {
		v := math.Inf(1)
		for i := 1; i < len(f[id].rows); i++ {
			v = math.Min(v, cell(id, i, col)(f)/cell(id, i-1, col)(f))
		}
		return v
	}
}

// fig14WC is Fig. 14's measured worst-case minimal throughput of the
// baseline (i = 0) or of the redundant-channel network (i = 1).
func fig14WC(i int) func(figs) float64 {
	return func(f figs) float64 {
		var wc [2]float64
		for _, l := range f["14"].lines {
			if _, err := fmt.Sscanf(l, "# WC minimal throughput: baseline %f, redundant channels %f", &wc[0], &wc[1]); err == nil {
				return wc[i]
			}
		}
		return math.NaN()
	}
}

// docBlocks maps each <!-- claims:NAME --> block of EXPERIMENTS.md to what
// it renders: the data tables of the figures in data, then the claim rows
// of the figures in rows.
var docBlocks = map[string]struct{ data, rows []string }{
	"fig4":  {rows: []string{"4a", "4b"}},
	"fig5":  {data: []string{"5"}, rows: []string{"5"}},
	"fig6":  {rows: []string{"6a", "6b"}},
	"fig12": {data: []string{"12a", "12b"}, rows: []string{"12a", "12b"}},
	"fig14": {rows: []string{"14"}},
}

// renderBlock renders EXPERIMENTS.md block name from the full-scale
// figures f.
func renderBlock(name string, f figs) string {
	var b strings.Builder
	row := func(cells ...string) { fmt.Fprintf(&b, "| %s |\n", strings.Join(cells, " | ")) }
	rule := func(n int) { b.WriteString("|" + strings.Repeat("---|", n) + "\n") }
	for _, id := range docBlocks[name].data {
		row(f[id].header...)
		rule(len(f[id].header))
		for _, r := range f[id].rows {
			row(r...)
		}
		b.WriteString("\n")
	}
	row("Fig", "Claim", "Paper", "Derived", "Band", "Measured")
	rule(6)
	s := scale(false)
	for _, c := range claims {
		if !slices.Contains(docBlocks[name].rows, c.fig) {
			continue
		}
		derived := "—"
		if c.derived != nil {
			derived = fmt.Sprintf("%.3f", c.derived(s))
		}
		lo, hi := c.bounds(s)
		row(c.fig, c.quantity, c.paper, derived, fmt.Sprintf("%.3f–%.3f", lo, hi), fmt.Sprintf("%.3f", c.measure(f)))
	}
	return b.String()
}
