package experiments

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"flatnet/internal/sweep"
)

// checkClaims holds every row of the claims table about the figures ids
// to its band at scale s, logging one verdict line per row.
func checkClaims(t *testing.T, f figs, s figScale, ids []string) {
	t.Helper()
	for _, c := range claims {
		if !slices.Contains(ids, c.fig) {
			continue
		}
		lo, hi := c.bounds(s)
		v := c.measure(f)
		msg := fmt.Sprintf("%-3s %s: %.3f in [%.3f, %.3f] (paper %s)", c.fig, c.quantity, v, lo, hi, c.paper)
		if v >= lo && v <= hi {
			t.Log("ok   " + msg)
		} else {
			t.Error("FAIL " + msg)
		}
	}
}

// checkQuick renders the figures ids at quick scale on a two-worker
// engine, with every job under the runtime sanitizer when sanitize is
// set, and holds each of their claims to its band.
func checkQuick(t *testing.T, sanitize bool, ids ...string) {
	t.Helper()
	dir := t.TempDir()
	eng := &sweep.Engine{Workers: 2, Check: sanitize}
	for _, id := range ids {
		var b bytes.Buffer
		if err := Figures[id](&b, eng, true); err != nil {
			t.Fatalf("figure %s: %v", id, err)
		}
		if err := os.WriteFile(filepath.Join(dir, "fig"+id+".txt"), b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := readFigs(dir, ids)
	if err != nil {
		t.Fatal(err)
	}
	checkClaims(t, f, scale(true), ids)
}

// experimentsBlocks returns the body of each <!-- claims:NAME --> ...
// <!-- /claims --> block of EXPERIMENTS.md by name; markers are whole
// lines.
func experimentsBlocks(t *testing.T) map[string]string {
	t.Helper()
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	name := ""
	for _, line := range strings.SplitAfter(string(doc), "\n") {
		switch trimmed := strings.TrimSuffix(line, "\n"); {
		case strings.HasPrefix(trimmed, "<!-- claims:"):
			name = strings.TrimSuffix(strings.TrimPrefix(trimmed, "<!-- claims:"), " -->")
			out[name] = ""
		case trimmed == "<!-- /claims -->":
			name = ""
		case name != "":
			out[name] += line
		}
	}
	if name != "" {
		t.Fatalf("EXPERIMENTS.md: claims:%s block is not closed", name)
	}
	return out
}

// TestClaimsDoc holds every claim to its band on the committed full-scale
// results/ and checks that each claims block of EXPERIMENTS.md is exactly
// what the table renders from them. It simulates nothing.
func TestClaimsDoc(t *testing.T) {
	f, err := readFigs("../../results", claimFigs())
	if err != nil {
		t.Fatal(err)
	}
	checkClaims(t, f, scale(false), claimFigs())
	for name, body := range experimentsBlocks(t) {
		if want := renderBlock(name, f); body != want {
			t.Errorf("EXPERIMENTS.md block claims:%s is stale; it should read:\n%s", name, want)
		}
	}
}

// TestClaimsTableWellFormed catches a silently empty or malformed table.
func TestClaimsTableWellFormed(t *testing.T) {
	for _, c := range claims {
		if c.quantity == "" || c.paper == "" || c.measure == nil || !(c.band[0] < c.band[1]) {
			t.Errorf("fig %s %q: malformed row (band %v)", c.fig, c.quantity, c.band)
		}
		if _, ok := Figures[c.fig]; !ok {
			t.Errorf("fig %s %q: no such simulation figure", c.fig, c.quantity)
		}
		for _, s := range []figScale{scale(true), scale(false)} {
			if c.derived == nil {
				break
			}
			if d := c.derived(s); !(d > 0) || math.IsInf(d, 1) {
				t.Errorf("fig %s %q: derived %v at k=%d", c.fig, c.quantity, d, s.k)
			}
		}
	}
	for name, blk := range docBlocks {
		for _, id := range blk.rows {
			if !slices.ContainsFunc(claims, func(c claim) bool { return c.fig == id }) {
				t.Errorf("block %s renders fig %s, which has no claims", name, id)
			}
		}
	}
	found := experimentsBlocks(t)
	for name := range found {
		if _, ok := docBlocks[name]; !ok {
			t.Errorf("EXPERIMENTS.md block claims:%s has no renderer", name)
		}
	}
	if len(found) != len(docBlocks) {
		t.Errorf("EXPERIMENTS.md has %d claims blocks, want one per renderer (%d)", len(found), len(docBlocks))
	}
}
