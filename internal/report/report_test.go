package report

import (
	"math"
	"strings"
	"testing"
)

func TestChartBasics(t *testing.T) {
	c := Chart{Title: "test", XLabel: "load", Width: 40, Height: 10}
	var sb strings.Builder
	err := c.Render(&sb, []Series{
		{Label: "one", X: []float64{0, 0.5, 1}, Y: []float64{1, 2, 4}},
		{Label: "two", X: []float64{0, 0.5, 1}, Y: []float64{4, 2, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "test") || !strings.Contains(out, "*=one") || !strings.Contains(out, "o=two") {
		t.Fatalf("missing title/legend:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Fatal("missing data glyphs")
	}
	// Exactly Height plot rows plus axis and labels.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 1+10+1+1+1 {
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
}

func TestChartHandlesNaNAndCap(t *testing.T) {
	c := Chart{Width: 20, Height: 8, YCap: 100}
	var sb strings.Builder
	err := c.Render(&sb, []Series{
		{Label: "lat", X: []float64{0.1, 0.5, 0.9}, Y: []float64{3, math.NaN(), 1e9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "100") {
		t.Errorf("capped axis should read 100:\n%s", sb.String())
	}
}

func TestChartEmpty(t *testing.T) {
	c := Chart{Title: "none"}
	var sb strings.Builder
	if err := c.Render(&sb, []Series{{Label: "x", X: []float64{1}, Y: []float64{math.NaN()}}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no data") {
		t.Error("empty chart should say so")
	}
}

func TestChartDefaults(t *testing.T) {
	c := Chart{}
	var sb strings.Builder
	if err := c.Render(&sb, []Series{{Label: "s", X: []float64{0, 1}, Y: []float64{0, 1}}}); err != nil {
		t.Fatal(err)
	}
	if len(sb.String()) == 0 {
		t.Fatal("no output")
	}
}

func TestChartSingleXValue(t *testing.T) {
	c := Chart{Width: 10, Height: 5}
	var sb strings.Builder
	if err := c.Render(&sb, []Series{{Label: "pt", X: []float64{2}, Y: []float64{3}}}); err != nil {
		t.Fatal(err)
	}
}
