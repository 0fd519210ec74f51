// Deliberate-fault tests: each sanitizer checker must fire — with cycle
// and channel context — when the corresponding corruption is injected
// into an otherwise healthy simulation, and stay silent on clean runs.
package check_test

import (
	"io"
	"reflect"
	"strings"
	"testing"

	"flatnet/internal/check"
	"flatnet/internal/routing"
	"flatnet/internal/sim"
	"flatnet/internal/telemetry"
	"flatnet/internal/topo"
	"flatnet/internal/traffic"
)

// setPattern installs p under the Bernoulli arrival process.
func setPattern(t *testing.T, n *sim.Network, p traffic.Pattern) {
	t.Helper()
	if err := n.SetSource(traffic.NewBernoulli(p)); err != nil {
		t.Fatal(err)
	}
}

// newChecked builds a small flattened-butterfly network with a sanitizer
// attached and Bernoulli traffic armed.
func newChecked(t *testing.T, cfg sim.Config, ccfg check.Config, load float64) (*sim.Network, *check.Sanitizer) {
	t.Helper()
	f, err := topo.NewFlatFly(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	n, err := sim.New(f.Graph(), routing.NewMinAD(f), cfg)
	if err != nil {
		t.Fatal(err)
	}
	setPattern(t, n, traffic.NewUniform(n.NumNodes()))
	s := check.Attach(n, ccfg)
	_ = load
	return n, s
}

func stepLoaded(t *testing.T, n *sim.Network, load float64, cycles int) {
	t.Helper()
	for i := 0; i < cycles; i++ {
		if err := n.Generate(load); err != nil {
			t.Fatal(err)
		}
		n.Step()
	}
}

// drain steps without injection until the network empties.
func drain(t *testing.T, n *sim.Network, maxCycles int) {
	t.Helper()
	for i := 0; i < maxCycles; i++ {
		if n.Quiescent() {
			return
		}
		n.Step()
	}
	t.Fatalf("network did not drain within %d cycles", maxCycles)
}

func TestCleanRunNoViolations(t *testing.T) {
	for _, size := range []int{1, 4} {
		cfg := sim.DefaultConfig()
		cfg.PacketSize = size
		n, s := newChecked(t, cfg, check.Config{}, 0.4)
		stepLoaded(t, n, 0.4, 500)
		drain(t, n, 5000)
		if err := s.Finalize(); err != nil {
			t.Fatalf("PacketSize %d: clean run tripped the sanitizer: %v", size, err)
		}
	}
}

// injectFaultSomewhere scans the network for a viable fault site,
// stepping under load between scans: with sufficient switch speedup the
// input buffers often drain within the cycle, so a single between-steps
// snapshot may find nothing to corrupt.
func injectFaultSomewhere(t *testing.T, n *sim.Network, k sim.FaultKind, load float64) {
	t.Helper()
	g := n.Graph()
	for attempt := 0; attempt < 2000; attempt++ {
		for r := range g.Routers {
			ports := len(g.Routers[r].Out)
			if k == sim.FaultDropFlit {
				ports = len(g.Routers[r].In)
			}
			for p := 0; p < ports; p++ {
				for v := 0; v < n.VCs(); v++ {
					if n.InjectFault(k, topo.RouterID(r), p, v) == nil {
						return
					}
				}
			}
		}
		stepLoaded(t, n, load, 1)
	}
	t.Fatal("no viable fault site found; raise the load or run longer")
}

// expectKind asserts the sanitizer recorded a violation of the kind and
// that it carries cycle and channel context.
func expectKind(t *testing.T, s *check.Sanitizer, kind string, wantChannel bool) {
	t.Helper()
	for _, v := range s.Violations() {
		if v.Kind != kind {
			continue
		}
		if v.Cycle <= 0 {
			t.Errorf("%s violation lacks a cycle: %v", kind, v)
		}
		if wantChannel && v.Router < 0 {
			t.Errorf("%s violation lacks channel context: %v", kind, v)
		}
		if !strings.Contains(v.String(), kind) {
			t.Errorf("violation String() omits the kind: %q", v.String())
		}
		return
	}
	t.Fatalf("no %s violation recorded; got %v", kind, s.Violations())
}

func TestFaultDropFlitCaught(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Speedup = 1 // force crossbar contention so input buffers back up
	n, s := newChecked(t, cfg, check.Config{}, 0.8)
	stepLoaded(t, n, 0.8, 50)
	injectFaultSomewhere(t, n, sim.FaultDropFlit, 0.8)
	stepLoaded(t, n, 0.8, 2)
	expectKind(t, s, check.KindConservation, false)
	expectKind(t, s, check.KindChannelAudit, true)
	if s.Err() == nil {
		t.Fatal("Err() nil after violations")
	}
}

// TestFaultLeakCreditCaught also holds sanitizers to composing: every
// one attached to the network reports the leak, and one detached before
// it reports nothing.
func TestFaultLeakCreditCaught(t *testing.T) {
	n, s := newChecked(t, sim.DefaultConfig(), check.Config{}, 0.5)
	second := check.Attach(n, check.Config{})
	detached := check.Attach(n, check.Config{})
	stepLoaded(t, n, 0.5, 50)
	detached.Detach()
	injectFaultSomewhere(t, n, sim.FaultLeakCredit, 0.5)
	stepLoaded(t, n, 0.5, 2)
	expectKind(t, s, check.KindChannelAudit, true)
	expectKind(t, second, check.KindChannelAudit, true)
	if err := detached.Err(); err != nil {
		t.Fatalf("detached sanitizer still observes the network: %v", err)
	}
}

func TestFaultDupCreditCaught(t *testing.T) {
	n, s := newChecked(t, sim.DefaultConfig(), check.Config{}, 0.5)
	stepLoaded(t, n, 0.5, 50)
	injectFaultSomewhere(t, n, sim.FaultDupCredit, 0.5)
	stepLoaded(t, n, 0.5, 2)
	expectKind(t, s, check.KindChannelAudit, true)
}

// TestFaultDoubleGrantCaught clears a held VC's owner mid-packet: the
// allocator then legally (from its view) grants the VC to a second
// packet, which the sanitizer's own ownership table catches.
func TestFaultDoubleGrantCaught(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.PacketSize = 6 // long wormholes keep VCs held across many cycles
	n, s := newChecked(t, cfg, check.Config{}, 0.8)
	// Step until some VC is held, then free it behind the checker's back.
	freed := false
	for i := 0; i < 2000 && !freed; i++ {
		stepLoaded(t, n, 0.8, 1)
		g := n.Graph()
		for r := range g.Routers {
			for p := range g.Routers[r].Out {
				for v := 0; v < n.VCs(); v++ {
					if n.InjectFault(sim.FaultFreeVC, topo.RouterID(r), p, v) == nil {
						freed = true
					}
				}
			}
		}
	}
	if !freed {
		t.Fatal("no held VC appeared to free")
	}
	stepLoaded(t, n, 0.8, 500)
	expectKind(t, s, check.KindDoubleGrant, true)
}

// TestDeadlockWatchdog wedges every network VC under a phantom wormhole
// owner: no head flit can ever be granted again, and the watchdog must
// report the stuck channels.
func TestDeadlockWatchdog(t *testing.T) {
	n, s := newChecked(t, sim.DefaultConfig(), check.Config{WatchdogCycles: 200}, 0.5)
	// Adversarial traffic keeps every destination off the source router:
	// under uniform traffic, same-router packets bypass the wedged
	// network channels and keep delivering, resetting the watchdog.
	setPattern(t, n, traffic.NewWorstCase(4, 4))
	stepLoaded(t, n, 0.5, 50)
	g := n.Graph()
	for r := range g.Routers {
		for p := range g.Routers[r].Out {
			for v := 0; v < n.VCs(); v++ {
				n.InjectFault(sim.FaultSeizeVC, topo.RouterID(r), p, v)
			}
		}
	}
	// Keep injecting so flits are provably alive and wedged.
	stepLoaded(t, n, 0.5, 600)
	expectKind(t, s, check.KindDeadlock, false)
	found := false
	for _, v := range s.Violations() {
		if v.Kind == check.KindDeadlock {
			found = true
			if !strings.Contains(v.Detail, "stuck channels") {
				t.Errorf("deadlock report lacks stuck-channel dump: %s", v.Detail)
			}
		}
	}
	if !found {
		t.Fatal("watchdog did not fire")
	}
}

// TestStalledPacketCaughtAtFinalize drops a mid-packet flit: the packet
// can never complete, and Finalize must flag it even if the run "ends".
func TestWholenessOnDroppedFlit(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.PacketSize = 4
	cfg.Speedup = 1
	n, s := newChecked(t, cfg, check.Config{}, 0.5)
	stepLoaded(t, n, 0.5, 60)
	injectFaultSomewhere(t, n, sim.FaultDropFlit, 0.5)
	stepLoaded(t, n, 0.5, 200)
	// The mutilated packet's tail ejects after only PacketSize-1 flits
	// (or never, wedging its wormhole); either way a wholeness or
	// conservation violation must be on record.
	if s.Err() == nil {
		t.Fatal("dropped mid-wormhole flit went unnoticed")
	}
}

// TestSanitizerDoesNotPerturb verifies the run invariance contract on
// every harness with an Attach hook: results with and without the
// sanitizer armed are identical, and the armed run trips nothing. The
// armed run also carries probes and a tracer, which must see exactly
// what each sees attached alone: hook sets compose.
func TestSanitizerDoesNotPerturb(t *testing.T) {
	f, err := topo.NewFlatFly(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, cfg := f.Graph(), sim.DefaultConfig()
	uniform := func() traffic.Source { return traffic.NewBernoulli(traffic.NewUniform(f.NumNodes)) }
	for _, tc := range []struct {
		name string
		run  func(attach func(*sim.Network)) (any, error)
	}{
		{"RunLoadPoint", func(attach func(*sim.Network)) (any, error) {
			return sim.RunLoadPoint(g, routing.NewUGALS(f), cfg, sim.RunConfig{
				Load: 0.6, Source: uniform(), Warmup: 200, Measure: 300, Attach: attach,
			})
		}},
		{"RunBatch", func(attach func(*sim.Network)) (any, error) {
			return sim.RunBatch(g, routing.NewUGALS(f), cfg, sim.BatchConfig{
				Pattern: traffic.NewUniform(f.NumNodes), BatchSize: 8, Attach: attach,
			})
		}},
		{"RunCollective", func(attach func(*sim.Network)) (any, error) {
			return sim.RunCollective(g, routing.NewUGALS(f), cfg, sim.CollectiveConfig{
				Kind: sim.CollectiveAllToAll, Packets: 2, Source: uniform(), Load: 0.3, Warmup: 100,
				Attach: attach,
			})
		}},
	} {
		plain, err := tc.run(nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var probesAlone, probesArmed *sim.Probes
		traceAlone, traceArmed := telemetry.NewTracer(1<<16), telemetry.NewTracer(1<<16)
		probed, err := tc.run(func(n *sim.Network) { probesAlone = n.AttachProbes(sim.ProbeConfig{Stride: 16}) })
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		traced, err := tc.run(func(n *sim.Network) { n.AttachTracer(traceAlone) })
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var attach func(*sim.Network)
		done := check.Arm(&attach, check.Config{})
		armed, sanitized := attach, 0
		attach = func(n *sim.Network) {
			armed(n)
			// So far only the sanitizer is attached, and an instrumented
			// network refuses to snapshot.
			if n.Snapshot(io.Discard) != nil {
				sanitized++
			}
			probesArmed = n.AttachProbes(sim.ProbeConfig{Stride: 16})
			n.AttachTracer(traceArmed)
		}
		checked, err := tc.run(attach)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := done(); err != nil {
			t.Fatalf("%s: sanitized run tripped: %v", tc.name, err)
		}
		if sanitized != 1 {
			t.Fatalf("%s: Arm sanitized %d networks, want 1", tc.name, sanitized)
		}
		for _, res := range []any{probed, traced, checked} {
			if res != plain {
				t.Fatalf("%s: instrumentation perturbed the simulation:\nplain        %+v\ninstrumented %+v", tc.name, plain, res)
			}
		}
		if probesAlone.Grants == 0 || !reflect.DeepEqual(probesAlone.Snapshot(), probesArmed.Snapshot()) ||
			!reflect.DeepEqual(probesAlone.Channels(), probesArmed.Channels()) {
			t.Fatalf("%s: probes alone and beside a tracer and sanitizer differ:\nalone  %v\nbeside %v",
				tc.name, probesAlone.Snapshot(), probesArmed.Snapshot())
		}
		if traceAlone.Len() == 0 || !reflect.DeepEqual(traceAlone.Events(), traceArmed.Events()) {
			t.Fatalf("%s: tracer alone recorded %d events, beside probes and a sanitizer %d (or they differ)",
				tc.name, traceAlone.Len(), traceArmed.Len())
		}
	}
}

// TestInOrderDeliveryDeterministic runs e-cube (deterministic) traffic
// with the in-order checker on: single-path routing must never reorder a
// (src, dst) flow.
func TestInOrderDeliveryDeterministic(t *testing.T) {
	h, err := topo.NewHypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	n, err := sim.New(h.Graph(), routing.NewECube(h), sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	setPattern(t, n, traffic.NewUniform(n.NumNodes()))
	s := check.Attach(n, check.Config{InOrder: true})
	stepLoaded(t, n, 0.5, 800)
	drain(t, n, 5000)
	if err := s.Finalize(); err != nil {
		t.Fatalf("e-cube reordered or tripped: %v", err)
	}
}
