package sim

import (
	"fmt"
	"testing"
	"unsafe"

	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

// SetStepAll switches a network between the active-worklist scheduler
// (false, the default) and the debug full-scan scheduler that visits
// every router and source each cycle (true). The two must be
// observationally identical; worklist_test.go holds them to it.
func SetStepAll(n *Network, v bool) { n.stepAll = v }

// MinCalendarBlock is the capacity, in events, of the smallest block a
// calendar list takes from the arena.
const MinCalendarBlock = 1 << minBlockClass

// MustInstall installs pattern p under the Bernoulli arrival process, the
// paper's open-loop injection, failing the test if SetSource refuses.
func MustInstall(t testing.TB, n *Network, p traffic.Pattern) {
	t.Helper()
	if err := n.SetSource(traffic.NewBernoulli(p)); err != nil {
		t.Fatal(err)
	}
}

// MustGenerate performs one cycle's arrivals at load, failing the test
// if Generate errors.
func MustGenerate(t testing.TB, n *Network, load float64) {
	t.Helper()
	if err := n.Generate(load); err != nil {
		t.Fatal(err)
	}
}

// CheckQueueEstRows verifies the invariant behind RouterView.QueueEstPort
// and QueueEstRow: every output port's entry in its router's
// queue-estimate row equals the sum of the port's per-VC pending counts,
// and the padding that rounds a row up to whole cache lines is never
// written. It returns the first violation.
func CheckQueueEstRows(n *Network) error {
	var rows int64
	for ri := range n.routers {
		rt := &n.routers[ri]
		for p := range rt.out {
			var sum int32
			for v := 0; v < 1<<n.vcShift; v++ {
				sum += rt.ovc[p<<n.vcShift+v].pending
			}
			if rt.psum[p] != sum {
				return fmt.Errorf("cycle %d router %d port %d: row holds %d, VCs sum to %d", n.cycle, ri, p, rt.psum[p], sum)
			}
			if &n.psum[rt.out[p].psumAt] != &rt.psum[p] {
				return fmt.Errorf("router %d port %d: psumAt %d does not address its row entry", ri, p, rt.out[p].psumAt)
			}
			rows += int64(sum)
		}
	}
	var slab int64
	for _, v := range n.psum {
		slab += int64(v)
	}
	if slab != rows {
		return fmt.Errorf("cycle %d: row padding was written (slab sums to %d, rows to %d)", n.cycle, slab, rows)
	}
	return nil
}

// ForgePending overwrites one output VC's pending count without touching
// the port's row entry: the state a hostile snapshot describes.
func ForgePending(n *Network, r topo.RouterID, port, vc int, pending int32) {
	n.routers[r].ovc[port<<n.vcShift|vc].pending = pending
}

// BacklogStorage returns the bytes the sources' backlogs hold: their head
// windows, and their stream chunks with the spares.
func BacklogStorage(n *Network) (windows, streams int64) {
	for i := range n.sources {
		s := &n.sources[i]
		_, total := backlogStorage(s)
		w := int64(cap(s.hd)) * 16
		windows, streams = windows+w, streams+int64(total)-w
	}
	return windows, streams
}

// PacketSlabBytes returns the size of the network's packet slab.
func PacketSlabBytes(n *Network) int64 {
	return int64(len(n.arena.chunks)) * int64(unsafe.Sizeof(pktChunk{}))
}
