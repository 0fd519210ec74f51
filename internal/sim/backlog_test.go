package sim

import (
	"bytes"
	"math/rand"
	"testing"

	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

// backlogStorage reports the segments a source holds (head, queued and
// spare) and their total size in bytes.
func backlogStorage(s *source) (segs, bytes int) {
	count := func(seg []arrival) {
		if cap(seg) > 0 {
			segs++
			bytes += cap(seg) * 16
		}
	}
	count(s.hd)
	if o := s.more; o != nil {
		for _, seg := range o.segs {
			count(seg)
		}
		count(o.spare)
	}
	return segs, bytes
}

// pendingEntry is one backlog arrival as the reference FIFO keeps it.
type pendingEntry struct {
	ts   int64
	dst  int32
	xfer *Transfer
}

func pendingOf(s *source) []pendingEntry {
	var out []pendingEntry
	s.eachPending(func(a arrival, t *Transfer) {
		if a.xfer != (t != nil) {
			panic("eachPending: transfer flag and handle disagree")
		}
		out = append(out, pendingEntry{a.ts, a.dst, t})
	})
	return out
}

// TestSourceBacklogModel drives one source's backlog at random against a
// plain-slice FIFO: every kind of push, pops with their transfer credit,
// peeks, the length and the in-order walk must agree at every step, while
// the backlog swings between empty and several thousand arrivals so the
// head and the tail cross every segment size and the spare is reused.
func TestSourceBacklogModel(t *testing.T) {
	rnd := rand.New(rand.NewSource(23))
	var s source
	var ref []pendingEntry
	var ts int64
	check := func(step int) {
		t.Helper()
		if s.empty() != (len(ref) == 0) || s.backlogLen() != len(ref) {
			t.Fatalf("step %d: backlog says empty=%v len=%d, reference holds %d", step, s.empty(), s.backlogLen(), len(ref))
		}
		if len(ref) > 0 && s.peekTS() != ref[0].ts {
			t.Fatalf("step %d: peek %d, want %d", step, s.peekTS(), ref[0].ts)
		}
	}
	// target swings the backlog up and down so growth, drain-to-empty and
	// the never-quite-empty regime all occur.
	targets := []int{0, 3, 9, 40, 3000, 1, 700, 0, 5000, 2, 2, 1500, 0}
	step := 0
	for _, target := range targets {
		for phase := 0; phase < 4000 && (phase < 200 || len(ref) != target); phase++ {
			step++
			pushBias := 50
			if len(ref) < target {
				pushBias = 80
			} else if len(ref) > target {
				pushBias = 20
			}
			if rnd.Intn(100) < pushBias {
				ts += int64(rnd.Intn(3))
				switch rnd.Intn(6) {
				case 0:
					dst := int32(rnd.Intn(64))
					s.pushTraced(ts, topo.NodeID(dst))
					ref = append(ref, pendingEntry{ts, dst, nil})
				case 1:
					// What StartTransfer does: a run of identical arrivals.
					tr := &Transfer{packets: 1 + rnd.Intn(7)}
					dst := int32(rnd.Intn(64))
					for i := 0; i < tr.packets; i++ {
						s.pushTransfer(ts, dst, tr)
						ref = append(ref, pendingEntry{ts, dst, tr})
					}
				default:
					s.pushTimestamp(ts)
					ref = append(ref, pendingEntry{ts, -1, nil})
				}
			} else if len(ref) > 0 {
				a := s.pop()
				var tr *Transfer
				if a.xfer {
					tr = s.popTransfer()
				}
				if got := (pendingEntry{a.ts, a.dst, tr}); got != ref[0] {
					t.Fatalf("step %d: popped %+v, want %+v", step, got, ref[0])
				}
				ref = ref[1:]
			}
			check(step)
			if step%97 == 0 {
				got := pendingOf(&s)
				if len(got) != len(ref) {
					t.Fatalf("step %d: walk visits %d arrivals, want %d", step, len(got), len(ref))
				}
				for i := range got {
					if got[i] != ref[i] {
						t.Fatalf("step %d: walk entry %d is %+v, want %+v", step, i, got[i], ref[i])
					}
				}
				// A transfer whose last arrival has been popped is released
				// at once: only the live runs hold a handle.
				if o := s.more; o != nil {
					for i, r := range o.runs[:cap(o.runs)] {
						if live := i >= o.rh && i < len(o.runs); !live && r.t != nil {
							t.Fatalf("step %d: finished transfer still reachable at run slot %d (live %d..%d)", step, i, o.rh, len(o.runs))
						}
					}
				}
			}
		}
	}
	if step < 20000 {
		t.Fatalf("model ran only %d steps", step)
	}
	if o := s.more; len(o.runs) != 0 || o.rh != 0 {
		t.Fatalf("empty backlog still holds %d transfer runs (head %d)", len(o.runs), o.rh)
	}
}

// TestBacklogSurvivesSnapshot checks the backlog through the file format:
// pattern, traced (one in the future) and transfer arrivals, queued deep
// enough to span several segments with the head mid-segment, restore
// entry for entry, materialize with the same destinations, and credit the
// same transfers.
func TestBacklogSurvivesSnapshot(t *testing.T) {
	f := testFF(t, 4, 2)
	g := f.Graph()
	a, err := New(g, &minimalAlg{f}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	MustInstall(t, a, traffic.NewUniform(g.NumNodes))
	var handles []*Transfer
	start := func(src, dst topo.NodeID, packets int) {
		tr, err := a.StartTransfer(src, dst, packets)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, tr)
	}
	for i := 0; i < 1500; i++ {
		a.pushArrival(0, 0)
	}
	start(0, 9, 5)
	start(0, 3, 2)
	for i := 0; i < 700; i++ {
		if err := a.InjectAt(0, 0, topo.NodeID(1+i%15)); err != nil {
			t.Fatal(err)
		}
	}
	start(0, 12, 1)
	start(5, 6, 3)
	a.pushArrival(5, 0)
	if err := a.InjectAt(7, 40, 2); err != nil { // not due until cycle 40
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		a.Step()
	}
	if got := a.sources[0].backlogLen(); got < 2100 || a.sources[0].head == 0 {
		t.Fatalf("source 0 holds %d arrivals at head offset %d; want a long backlog mid-segment", got, a.sources[0].head)
	}

	var buf bytes.Buffer
	if err := a.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := Restore(bytes.NewReader(buf.Bytes()), g, &minimalAlg{f}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	MustInstall(t, b, traffic.NewUniform(g.NumNodes))

	// Entry for entry, with restored handles paired to the originals in
	// order of first appearance.
	twin := map[*Transfer]*Transfer{}
	for i := range a.sources {
		pa, pb := pendingOf(&a.sources[i]), pendingOf(&b.sources[i])
		if len(pa) != len(pb) {
			t.Fatalf("source %d: restored backlog holds %d arrivals, want %d", i, len(pb), len(pa))
		}
		for k := range pa {
			if pa[k].ts != pb[k].ts || pa[k].dst != pb[k].dst || (pa[k].xfer == nil) != (pb[k].xfer == nil) {
				t.Fatalf("source %d arrival %d: restored %+v, want %+v", i, k, pb[k], pa[k])
			}
			if ta, tb := pa[k].xfer, pb[k].xfer; ta != nil {
				if old, ok := twin[ta]; ok && old != tb {
					t.Fatalf("source %d arrival %d: one transfer restored as two handles", i, k)
				}
				twin[ta] = tb
			}
		}
	}
	if len(twin) < 3 {
		t.Fatalf("only %d transfers were still queued at the snapshot; the scenario should hold at least 3", len(twin))
	}

	type delivered struct {
		cycle, id int64
		src, dst  topo.NodeID
	}
	var da, db []delivered
	a.AttachHooks(&Hooks{Deliver: func(p *Packet, c int64) { da = append(da, delivered{c, p.ID, p.Src, p.Dst}) }})
	b.AttachHooks(&Hooks{Deliver: func(p *Packet, c int64) { db = append(db, delivered{c, p.ID, p.Src, p.Dst}) }})
	for i := 0; i < 20000 && !(a.Quiescent() && b.Quiescent()); i++ {
		a.Step()
		b.Step()
	}
	if !a.Quiescent() || !b.Quiescent() {
		t.Fatal("networks did not drain")
	}
	if len(da) != len(db) {
		t.Fatalf("restored run delivered %d packets, straight run %d", len(db), len(da))
	}
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("delivery %d: restored %+v, straight %+v", i, db[i], da[i])
		}
	}
	for _, tr := range handles {
		if !tr.Done() {
			t.Fatalf("transfer %d->%d not done after drain", tr.src, tr.dst)
		}
	}
	for ta, tb := range twin {
		if *ta != *tb {
			t.Fatalf("transfer %d->%d: restored handle ended as %+v, original as %+v", ta.src, ta.dst, *tb, *ta)
		}
	}
	if a.PendingTransfers() != 0 || b.PendingTransfers() != 0 {
		t.Fatalf("tracking maps hold %d and %d packets after drain", a.PendingTransfers(), b.PendingTransfers())
	}
}

// TestTransferRelease runs transfers back to back on one network: the
// tracking map must drain and no source may accumulate run entries (a
// finished transfer must not stay reachable from the network).
func TestTransferRelease(t *testing.T) {
	f := testFF(t, 4, 2)
	g := f.Graph()
	n, err := New(g, &minimalAlg{f}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	MustInstall(t, n, traffic.NewUniform(g.NumNodes))
	for i := 0; i < 10000; i++ {
		src, dst := topo.NodeID(i%3), topo.NodeID((i*7+5)%g.NumNodes)
		tr, err := n.StartTransfer(src, dst, 1+i%3)
		if err != nil {
			t.Fatal(err)
		}
		// Every third transfer is queued behind the previous one, so
		// a run list is sometimes two deep.
		if i%3 != 0 {
			stepUntilDone(t, n, tr, 0, 1000)
		}
	}
	for !n.Quiescent() {
		n.Step()
	}
	if n.PendingTransfers() != 0 {
		t.Fatalf("tracking map holds %d packets", n.PendingTransfers())
	}
	for i := range n.sources {
		o := n.sources[i].more
		if o == nil {
			continue
		}
		if len(o.runs) != 0 || cap(o.runs) > 8 {
			t.Fatalf("source %d run list has length %d, capacity %d after 10000 transfers", i, len(o.runs), cap(o.runs))
		}
		for _, r := range o.runs[:cap(o.runs)] {
			if r.t != nil {
				t.Fatalf("source %d still reaches a finished transfer", i)
			}
		}
	}
}
