package sim

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

// minimalAlg is a tiny test algorithm for a 1-D flattened butterfly:
// direct minimal routing, 1 VC, greedy.
type minimalAlg struct{ f *topo.FlatFly }

func (a *minimalAlg) Name() string     { return "test-min" }
func (a *minimalAlg) NumVCs() int      { return 1 }
func (a *minimalAlg) Sequential() bool { return false }
func (a *minimalAlg) Route(view *RouterView, p *Packet) OutRef {
	r := view.Router()
	dst := a.f.RouterOf(p.Dst)
	if r == dst {
		return OutRef{Port: a.f.TerminalIndex(p.Dst), VC: 0}
	}
	// Lowest differing dimension, computed without allocating (DiffDims
	// returns a fresh slice, which would fail TestStepZeroAlloc).
	for d := 1; d <= a.f.Dims; d++ {
		if a.f.RouterDigit(r, d) != a.f.RouterDigit(dst, d) {
			return OutRef{Port: a.f.PortFor(d, a.f.RouterDigit(dst, d), 0), VC: 0}
		}
	}
	panic("minimalAlg: r != dst but no differing dimension")
}

func testFF(t *testing.T, k, n int) *topo.FlatFly {
	t.Helper()
	f, err := topo.NewFlatFly(k, n)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestSinglePacketDelivery(t *testing.T) {
	f := testFF(t, 4, 2)
	alg := &minimalAlg{f}
	n, err := New(f.Graph(), alg, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 -> node 15 (router 0 -> router 3): fixed pattern.
	MustInstall(t, n, traffic.NewFixed("single", func() []topo.NodeID {
		tab := make([]topo.NodeID, 16)
		for i := range tab {
			tab[i] = 15
		}
		return tab
	}()))
	var deliveredAt int64 = -1
	var got *Packet
	n.AttachHooks(&Hooks{Deliver: func(p *Packet, cycle int64) {
		cp := *p
		got = &cp
		deliveredAt = cycle
	}})
	n.pushArrival(0, 0)
	for i := 0; i < 20 && deliveredAt < 0; i++ {
		n.Step()
	}
	if deliveredAt < 0 {
		t.Fatal("packet not delivered within 20 cycles")
	}
	if got.Src != 0 || got.Dst != 15 {
		t.Fatalf("wrong packet delivered: %+v", got)
	}
	if got.Hops != 1 {
		t.Fatalf("hops = %d, want 1", got.Hops)
	}
	// Injection cycle 0; inject->route->switch at cycle 0; channel 1 cycle;
	// route+switch at router 3 at cycle 1; ejection channel 1 cycle ->
	// delivered at cycle 2.
	if deliveredAt != 2 {
		t.Fatalf("delivered at cycle %d, want 2", deliveredAt)
	}
}

func TestLocalDelivery(t *testing.T) {
	// Destination on the same router: zero network hops.
	f := testFF(t, 4, 2)
	n, err := New(f.Graph(), &minimalAlg{f}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tab := make([]topo.NodeID, 16)
	tab[0] = 1
	MustInstall(t, n, traffic.NewFixed("local", tab))
	hops := -1
	n.AttachHooks(&Hooks{Deliver: func(p *Packet, _ int64) { hops = p.Hops }})
	n.pushArrival(0, 0)
	for i := 0; i < 10 && hops < 0; i++ {
		n.Step()
	}
	if hops != 0 {
		t.Fatalf("local delivery hops = %d, want 0", hops)
	}
}

func TestConservation(t *testing.T) {
	f := testFF(t, 4, 2)
	n, err := New(f.Graph(), &minimalAlg{f}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	MustInstall(t, n, traffic.NewUniform(16))
	for i := 0; i < 500; i++ {
		MustGenerate(t, n, 0.5)
		n.Step()
		if i%100 != 0 {
			continue
		}
		injected, delivered := n.FlitTotals()
		buffered, inFlight := n.Inventory()
		if injected != delivered+int64(buffered)+int64(inFlight) {
			t.Fatalf("cycle %d: flit conservation violated: injected=%d delivered=%d buffered=%d inflight=%d",
				i, injected, delivered, buffered, inFlight)
		}
	}
}

func TestDrainAfterStop(t *testing.T) {
	f := testFF(t, 4, 2)
	n, err := New(f.Graph(), &minimalAlg{f}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	MustInstall(t, n, traffic.NewUniform(16))
	for i := 0; i < 200; i++ {
		MustGenerate(t, n, 0.4)
		n.Step()
	}
	// Stop injecting; everything must drain.
	for i := 0; i < 500; i++ {
		n.Step()
	}
	injected, delivered := n.Totals()
	if injected != delivered {
		t.Fatalf("network did not drain: injected=%d delivered=%d backlog=%d", injected, delivered, n.Backlog())
	}
	buffered, inFlight := n.Inventory()
	if buffered != 0 || inFlight != 0 {
		t.Fatalf("residual occupancy: buffered=%d inflight=%d", buffered, inFlight)
	}
}

func TestDeterminism(t *testing.T) {
	f := testFF(t, 4, 2)
	run := func() (int64, int64) {
		n, err := New(f.Graph(), &minimalAlg{f}, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		MustInstall(t, n, traffic.NewUniform(16))
		var latSum int64
		n.AttachHooks(&Hooks{Deliver: func(p *Packet, cycle int64) { latSum += cycle - p.InjectCycle }})
		for i := 0; i < 300; i++ {
			MustGenerate(t, n, 0.6)
			n.Step()
		}
		_, delivered := n.Totals()
		return delivered, latSum
	}
	d1, l1 := run()
	d2, l2 := run()
	if d1 != d2 || l1 != l2 {
		t.Fatalf("same seed diverged: (%d,%d) vs (%d,%d)", d1, l1, d2, l2)
	}
	if d1 == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestRunLoadPointLowLoad(t *testing.T) {
	f := testFF(t, 4, 2)
	res, err := RunLoadPoint(f.Graph(), &minimalAlg{f}, DefaultConfig(), RunConfig{
		Load:    0.2,
		Source:  traffic.NewBernoulli(traffic.NewUniform(16)),
		Warmup:  300,
		Measure: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated {
		t.Fatal("low load reported saturated")
	}
	if res.MeasuredDelivered != res.MeasuredCreated || res.MeasuredCreated == 0 {
		t.Fatalf("measured packets not drained: %d/%d", res.MeasuredDelivered, res.MeasuredCreated)
	}
	// Zero-load latency is ~2-3 cycles; at 20% load it should stay small.
	if res.AvgLatency < 1 || res.AvgLatency > 10 {
		t.Fatalf("implausible latency %v", res.AvgLatency)
	}
	if res.AcceptedRate < 0.17 || res.AcceptedRate > 0.23 {
		t.Fatalf("accepted rate %v, want ~0.2", res.AcceptedRate)
	}
	if res.AvgHops < 0.5 || res.AvgHops > 1.0 {
		t.Fatalf("avg hops %v, want in (0.5, 1.0) for 1-D uniform", res.AvgHops)
	}
}

func TestRunLoadPointValidation(t *testing.T) {
	f := testFF(t, 4, 2)
	if _, err := RunLoadPoint(f.Graph(), &minimalAlg{f}, DefaultConfig(), RunConfig{
		Load: 1.5, Source: traffic.NewBernoulli(traffic.NewUniform(16)), Warmup: 10, Measure: 10,
	}); err == nil {
		t.Error("load > 1 accepted")
	}
	if _, err := RunLoadPoint(f.Graph(), &minimalAlg{f}, DefaultConfig(), RunConfig{
		Load: 0.5, Source: traffic.NewBernoulli(traffic.NewUniform(16)),
	}); err == nil {
		t.Error("zero windows accepted")
	}
	if _, err := New(f.Graph(), &minimalAlg{f}, Config{Seed: 1, BufPerPort: 0}); err == nil {
		t.Error("zero buffer accepted")
	}
}

func TestMinimalSaturatesAtOneOverKOnWC(t *testing.T) {
	// The Fig 4(b) headline in miniature: minimal routing on the
	// worst-case pattern sustains ~1/k of capacity (here k=4 -> 25%).
	f := testFF(t, 4, 2)
	thpt, err := SaturationThroughput(f.Graph(), &minimalAlg{f}, DefaultConfig(),
		traffic.NewWorstCase(f.K, f.NumRouters), 500, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if thpt < 0.18 || thpt > 0.32 {
		t.Fatalf("WC minimal throughput = %v, want ~0.25", thpt)
	}
}

func TestMinimalFullThroughputOnUR(t *testing.T) {
	f := testFF(t, 4, 2)
	thpt, err := SaturationThroughput(f.Graph(), &minimalAlg{f}, DefaultConfig(),
		traffic.NewUniform(f.NumNodes), 500, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if thpt < 0.9 {
		t.Fatalf("UR minimal throughput = %v, want ~1.0", thpt)
	}
}

func TestRunBatch(t *testing.T) {
	f := testFF(t, 4, 2)
	res, err := RunBatch(f.Graph(), &minimalAlg{f}, DefaultConfig(),
		BatchConfig{Pattern: traffic.NewUniform(f.NumNodes), BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionCycles < 8 {
		t.Fatalf("batch finished impossibly fast: %d cycles", res.CompletionCycles)
	}
	if res.NormalizedLatency < 1 || res.NormalizedLatency > 20 {
		t.Fatalf("normalized latency %v out of plausible range", res.NormalizedLatency)
	}
	if _, err := RunBatch(f.Graph(), &minimalAlg{f}, DefaultConfig(),
		BatchConfig{Pattern: traffic.NewUniform(16)}); err == nil {
		t.Error("batch size 0 accepted")
	}
}

// TestRunBatchRejectsNilPattern: a BatchConfig without a Pattern is
// refused up front instead of nil-dereferencing at the first destination
// draw.
func TestRunBatchRejectsNilPattern(t *testing.T) {
	f := testFF(t, 4, 2)
	_, err := RunBatch(f.Graph(), &minimalAlg{f}, DefaultConfig(), BatchConfig{BatchSize: 2})
	if err == nil || !strings.Contains(err.Error(), "BatchConfig needs a Pattern") {
		t.Fatalf("RunBatch without a Pattern: err = %v", err)
	}
}

// TestSetSourceRejects: no route hands Step a source whose destination
// draw would dereference nil.
func TestSetSourceRejects(t *testing.T) {
	f := testFF(t, 4, 2)
	n, err := New(f.Graph(), &minimalAlg{f}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		src  traffic.Source
	}{
		{"nil source", nil},
		{"Bernoulli over a nil pattern", traffic.NewBernoulli(nil)},
		{"nil *Bernoulli", (*traffic.Bernoulli)(nil)},
	} {
		if err := n.SetSource(tc.src); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
		if n.Source() != nil {
			t.Fatalf("%s was installed", tc.name)
		}
	}
}

// TestRunsRejectMissingWorkload: every run harness answers a missing
// workload with an error — not a panic, not a silently quiet run.
func TestRunsRejectMissingWorkload(t *testing.T) {
	f := testFF(t, 4, 2)
	g, cfg := f.Graph(), DefaultConfig()
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"RunLoadPoint", func() error {
			_, err := RunLoadPoint(g, &minimalAlg{f}, cfg, RunConfig{Load: 0.2, Warmup: 10, Measure: 10})
			return err
		}},
		{"RunCollective", func() error {
			_, err := RunCollective(g, &minimalAlg{f}, cfg, CollectiveConfig{Kind: CollectiveAllToAll, Load: 0.2})
			return err
		}},
		{"RunBatch", func() error {
			_, err := RunBatch(g, &minimalAlg{f}, cfg, BatchConfig{BatchSize: 2})
			return err
		}},
	} {
		if err := tc.run(); err == nil {
			t.Errorf("%s ran without a workload", tc.name)
		}
	}
}

// TestRunBatchHooks pins RunBatch's hook semantics directly: Attach runs
// on the fresh network before the first cycle without perturbing the
// result, and Stop aborts the run.
func TestRunBatchHooks(t *testing.T) {
	f := testFF(t, 4, 2)
	pat := traffic.NewUniform(f.NumNodes)
	want, err := RunBatch(f.Graph(), &minimalAlg{f}, DefaultConfig(),
		BatchConfig{Pattern: pat, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	attached := false
	got, err := RunBatch(f.Graph(), &minimalAlg{f}, DefaultConfig(),
		BatchConfig{Pattern: pat, BatchSize: 4, RunHooks: RunHooks{Attach: func(n *Network) { attached = true }}})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("attached run diverged: %+v vs %+v", got, want)
	}
	if !attached {
		t.Fatal("RunBatch did not call the attach hook")
	}
	// Stop polling is throttled to every few hundred cycles, so a long
	// batch is needed for the hook to be consulted at all.
	stopped := 0
	if _, err := RunBatch(f.Graph(), &minimalAlg{f}, DefaultConfig(),
		BatchConfig{Pattern: pat, BatchSize: 500,
			RunHooks: RunHooks{Stop: func() bool { stopped++; return true }}}); err == nil {
		t.Fatal("stop hook did not abort the run")
	}
	if stopped == 0 {
		t.Fatal("stop hook never polled")
	}
}

func TestLoadSweepStopsAfterSaturation(t *testing.T) {
	f := testFF(t, 4, 2)
	loads := []float64{0.1, 0.5, 0.9, 0.95, 1.0}
	res, err := LoadSweep(f.Graph(), &minimalAlg{f}, DefaultConfig(), RunConfig{
		Source:    traffic.NewBernoulli(traffic.NewWorstCase(f.K, f.NumRouters)),
		Warmup:    200,
		Measure:   200,
		MaxCycles: 900,
	}, loads)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(loads) {
		t.Fatalf("got %d results", len(res))
	}
	if res[0].Saturated {
		t.Fatal("10% load saturated on WC with k=4 (limit is 25%)")
	}
	if !res[4].Saturated {
		t.Fatal("100% load did not saturate on WC minimal routing")
	}
}

// TestStepZeroAlloc pins the hot path's zero-allocation contract: once
// the pools, calendar slots and scratch buffers have been grown during
// warmup, a steady-state generate+step cycle performs no heap
// allocations. Any per-cycle allocation (a fresh event node, a scratch
// map, an escaping view) shows up as an average of >= 1 here. Generate
// through a traffic.Source is held to it at two loads: one where sources
// drain, and one where they rarely do.
func TestStepZeroAlloc(t *testing.T) {
	f := testFF(t, 4, 2)
	for _, load := range []float64{0.5, 0.8} {
		n, err := New(f.Graph(), &minimalAlg{f}, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := n.SetSource(traffic.NewBernoulli(traffic.NewUniform(f.NumNodes))); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			MustGenerate(t, n, load)
			n.Step()
		}
		avg := testing.AllocsPerRun(500, func() {
			MustGenerate(t, n, load)
			n.Step()
		})
		// Rare amortized growth (a source backlog high-water mark, a pool
		// append) may still allocate once in a while; a per-cycle allocation
		// averages >= 1.
		if avg >= 0.5 {
			t.Fatalf("load %v: steady-state cycle allocates: %.2f allocs/cycle, want ~0", load, avg)
		}
	}
}

// TestSourceBacklogIsRing holds the source backlog to bounded storage: a
// source that never fully drains must keep reusing its segments. (As an
// append-only window it kept growing — and reallocating — until a full
// drain or a 1024-entry compaction threshold.)
func TestSourceBacklogIsRing(t *testing.T) {
	var s source
	next, want := int64(0), int64(0)
	for i := 0; i < 3; i++ {
		s.pushTimestamp(next)
		next++
	}
	for i := 0; i < 10000; i++ {
		s.pushTimestamp(next)
		next++
		if got := s.peekTS(); got != want {
			t.Fatalf("peek %d: got timestamp %d, want %d", i, got, want)
		}
		if got := s.pop().ts; got != want {
			t.Fatalf("pop %d: got timestamp %d, want %d", i, got, want)
		}
		want++
		if s.backlogLen() != 3 {
			t.Fatalf("backlog %d, want 3", s.backlogLen())
		}
	}
	if segs, bytes := backlogStorage(&s); segs > 2 || bytes > 256 {
		t.Fatalf("backlog of 3-4 arrivals holds %d segments, %d bytes; want <= 2 segments, <= 256 bytes", segs, bytes)
	}
	// Growth across segments keeps FIFO order.
	for i := 0; i < 5000; i++ {
		s.pushTimestamp(next)
		next++
	}
	for !s.empty() {
		if got := s.pop().ts; got != want {
			t.Fatalf("after growth: got timestamp %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("drained %d arrivals, pushed %d", want, next)
	}
	// A drained source is back to one segment and its spare, however long
	// the backlog was.
	if segs, bytes := backlogStorage(&s); segs > 2 || bytes > 2*maxSegment*16 {
		t.Fatalf("drained backlog holds %d segments, %d bytes", segs, bytes)
	}
}

// TestHotLayoutSizes guards the cycle core's memory layout (DESIGN.md
// §10): a field added to one of these types must not silently push a
// packet or an output port across a cache line, or fatten the calendar.
func TestHotLayoutSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"Packet", unsafe.Sizeof(Packet{}), 64},
		{"flit", unsafe.Sizeof(flit(0)), 4},
		{"flitEv", unsafe.Sizeof(flitEv{}), 12},
		{"creditEv", unsafe.Sizeof(creditEv{}), 4},
		{"deliverEv", unsafe.Sizeof(deliverEv{}), 8},
		{"vcq", unsafe.Sizeof(vcq{}), 32},
		{"outPort", unsafe.Sizeof(outPort{}), 64},
		{"outVC", unsafe.Sizeof(outVC{}), 12},
		{"pktChunk", unsafe.Sizeof(pktChunk{}), 256 * 64},
		{"source", unsafe.Sizeof(source{}), 64},
		{"arrival", unsafe.Sizeof(arrival{}), 16},
	} {
		if c.got != c.want {
			t.Errorf("sizeof(%s) = %d bytes, want %d", c.name, c.got, c.want)
		}
	}
	// A router's queue-estimate row takes whole cache lines (16 int32s)
	// of the shared slab, so neighbouring routers never write the same
	// line.
	for _, c := range []struct{ ports, want int }{{1, 16}, {16, 16}, {17, 32}, {64, 64}, {127, 128}} {
		if got := psumStride(c.ports); got != c.want {
			t.Errorf("psumStride(%d ports) = %d int32s, want %d", c.ports, got, c.want)
		}
	}
}

// TestHotStateIsPointerFree holds the cycle core's per-flit and
// per-packet state free of pointers (DESIGN.md §10): packets are
// addressed by slab handle, so the flit rings, the calendar blocks, the
// VC headers and the packet chunks are noscan memory — the collector
// never marks them and a store into them takes no write barrier.
func TestHotStateIsPointerFree(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Chan,
			reflect.Func, reflect.Interface, reflect.String:
			t.Errorf("%s is a %s: the type holds a pointer", path, ty.Kind())
		}
	}
	for _, v := range []any{flit(0), flitEv{}, creditEv{}, deliverEv{}, vcq{}, outVC{}, arrival{}, Packet{}, pktChunk{}} {
		walk(reflect.TypeOf(v).Name(), reflect.TypeOf(v))
	}
}

func TestVCDepthDivision(t *testing.T) {
	f := testFF(t, 4, 2)
	n, err := New(f.Graph(), &minimalAlg{f}, Config{Seed: 1, BufPerPort: 32})
	if err != nil {
		t.Fatal(err)
	}
	if n.VCs() != 1 || n.VCDepth() != 32 {
		t.Fatalf("vcs=%d depth=%d, want 1/32", n.VCs(), n.VCDepth())
	}
}
