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

func pendingOf(s *source) []arrival {
	var out []arrival
	s.eachPending(func(a arrival) { out = append(out, a) })
	return out
}

// TestSourceBacklogModel drives one source's backlog at random against a
// plain-slice FIFO: every kind of push, pops, peeks, the length and the
// in-order walk must agree at every step, while
// the backlog swings between empty and several thousand arrivals so the
// head and the tail cross every segment size and the spare is reused.
func TestSourceBacklogModel(t *testing.T) {
	rnd := rand.New(rand.NewSource(23))
	var s source
	var ref []arrival
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
					ref = append(ref, arrival{ts: ts, dst: dst})
				case 1:
					// What StartTransfer does: a run of identical arrivals
					// naming their transfer's row.
					a := arrival{ts: ts, dst: int32(rnd.Intn(64)), xslot: int32(1 + rnd.Intn(9))}
					for i := rnd.Intn(7); i >= 0; i-- {
						s.push(a)
						ref = append(ref, a)
					}
				default:
					s.pushTimestamp(ts)
					ref = append(ref, arrival{ts: ts, dst: -1})
				}
			} else if len(ref) > 0 {
				if got := s.pop(); got != ref[0] {
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
			}
		}
	}
	if step < 20000 {
		t.Fatalf("model ran only %d steps", step)
	}
}

// TestBacklogSurvivesSnapshot checks the backlog through the file format:
// pattern, traced (one in the future) and transfer arrivals, queued deep
// enough to span several segments with the head mid-segment, restore
// entry for entry (a transfer's arrivals as ordinary ones) and
// materialize and deliver exactly as the straight run does.
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

	// Entry for entry, a transfer's arrivals restored untagged.
	queued := map[int32]bool{}
	for i := range a.sources {
		pa, pb := pendingOf(&a.sources[i]), pendingOf(&b.sources[i])
		if len(pa) != len(pb) {
			t.Fatalf("source %d: restored backlog holds %d arrivals, want %d", i, len(pb), len(pa))
		}
		for k := range pa {
			if pb[k] != (arrival{ts: pa[k].ts, dst: pa[k].dst}) {
				t.Fatalf("source %d arrival %d: restored %+v, want %+v untagged", i, k, pb[k], pa[k])
			}
			if pa[k].xslot != 0 {
				queued[pa[k].xslot] = true
			}
		}
	}
	if len(queued) < 3 {
		t.Fatalf("only %d transfers were still queued at the snapshot; the scenario should hold at least 3", len(queued))
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
	for i, tr := range handles {
		if !tr.Done() {
			t.Fatalf("transfer %d not done after drain", i)
		}
	}
	if len(a.xfers.free) != len(a.xfers.tab) || b.xfers != nil {
		t.Fatal("a slot table still holds a transfer after the drain")
	}
}

// TestTransferRelease runs transfers back to back on one network: each
// holds one row of the slot table until its last delivery, so the table
// stays as long as the most transfers ever live at once and a finished
// transfer is not reachable from the network.
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
		// Every third transfer is left in flight while the next one
		// starts, so two rows are sometimes live.
		if i%3 != 0 {
			stepUntilDone(t, n, tr, 0, 1000)
		}
	}
	for !n.Quiescent() {
		n.Step()
	}
	if len(n.xfers.tab) > 2 {
		t.Fatalf("slot table grew to %d rows after 10000 transfers", len(n.xfers.tab))
	}
	for _, x := range n.xfers.tab {
		if x != nil {
			t.Fatal("slot table still reaches a finished transfer")
		}
	}
}
