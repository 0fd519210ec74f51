// Package report renders experiment results as ASCII line charts, so
// cmd/paperfigs output files carry a human-readable picture of each
// figure next to the raw data columns.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Series is one labeled line on a chart. NaN values mark gaps (e.g.
// saturated load points).
type Series struct {
	Label string
	X, Y  []float64
}

// Chart is a multi-series ASCII line chart.
type Chart struct {
	Title  string
	YLabel string
	XLabel string
	Width  int     // plot columns (default 60)
	Height int     // plot rows (default 16)
	YCap   float64 // clip Y above this value (0 = no cap); useful for latency blow-ups
}

// seriesGlyphs mark the points of up to eight series.
var seriesGlyphs = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// Render draws the chart.
func (c *Chart) Render(w io.Writer, series []Series) error {
	width, height := c.Width, c.Height
	if width <= 0 {
		width = 60
	}
	if height <= 0 {
		height = 16
	}
	var xMin, xMax, yMax float64
	xMin = math.Inf(1)
	xMax = math.Inf(-1)
	any := false
	for _, s := range series {
		for i := range s.X {
			y := s.Y[i]
			if math.IsNaN(y) || math.IsInf(y, 0) {
				continue
			}
			if c.YCap > 0 && y > c.YCap {
				y = c.YCap
			}
			any = true
			if s.X[i] < xMin {
				xMin = s.X[i]
			}
			if s.X[i] > xMax {
				xMax = s.X[i]
			}
			if y > yMax {
				yMax = y
			}
		}
	}
	if !any {
		_, err := fmt.Fprintln(w, c.Title+" (no data)")
		return err
	}
	if xMax == xMin {
		xMax = xMin + 1
	}
	if yMax == 0 {
		yMax = 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		glyph := seriesGlyphs[si%len(seriesGlyphs)]
		for i := range s.X {
			y := s.Y[i]
			if math.IsNaN(y) || math.IsInf(y, 0) {
				continue
			}
			if c.YCap > 0 && y > c.YCap {
				y = c.YCap
			}
			col := int(math.Round((s.X[i] - xMin) / (xMax - xMin) * float64(width-1)))
			row := height - 1 - int(math.Round(y/yMax*float64(height-1)))
			if row >= 0 && row < height && col >= 0 && col < width {
				grid[row][col] = glyph
			}
		}
	}
	if c.Title != "" {
		if _, err := fmt.Fprintln(w, c.Title); err != nil {
			return err
		}
	}
	axisLabel := fmt.Sprintf("%.4g", yMax)
	pad := len(axisLabel)
	for r := 0; r < height; r++ {
		label := strings.Repeat(" ", pad)
		switch r {
		case 0:
			label = axisLabel
		case height - 1:
			label = fmt.Sprintf("%*s", pad, "0")
		}
		if _, err := fmt.Fprintf(w, "%s |%s\n", label, string(grid[r])); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s +%s\n", strings.Repeat(" ", pad), strings.Repeat("-", width)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s  %-*.4g%*.4g  (%s)\n",
		strings.Repeat(" ", pad), width/2, xMin, width-width/2, xMax, c.XLabel); err != nil {
		return err
	}
	// Legend.
	var legend []string
	for si, s := range series {
		legend = append(legend, fmt.Sprintf("%c=%s", seriesGlyphs[si%len(seriesGlyphs)], s.Label))
	}
	_, err := fmt.Fprintln(w, "  "+strings.Join(legend, "  "))
	return err
}
