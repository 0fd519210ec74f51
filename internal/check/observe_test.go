package check_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
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

// TestEveryModeEveryObserver holds observation to its contract on every
// run mode: with the sanitizer, the flit tracer, the probes or a trace
// recorder attached through the run's Attach hook, each mode's result —
// a checkpoint's snapshot bytes included — is byte-identical to the
// unobserved run's, and the observer saw the run: the tracer, probes
// and recorder hold events, and the sanitizer reports a leaked credit
// (expectArmed).
func TestEveryModeEveryObserver(t *testing.T) {
	f, err := topo.NewFlatFly(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, cfg := f.Graph(), sim.DefaultConfig()
	alg := func() sim.Algorithm { return routing.NewUGALS(f) }
	point := func(h sim.RunHooks) sim.RunConfig {
		return sim.RunConfig{
			Load: 0.4, Source: traffic.NewBernoulli(traffic.NewUniform(f.NumNodes)),
			Warmup: 150, Measure: 150, RunHooks: h,
		}
	}
	// The restore mode resumes from a warmed snapshot taken unobserved.
	var warm bytes.Buffer
	rc := point(sim.RunHooks{})
	rc.Checkpoint = &warm
	if _, err := sim.RunLoadPoint(g, alg(), cfg, rc); err != nil {
		t.Fatal(err)
	}
	// The replay mode streams a hand-built workload trace.
	var entries []sim.TraceEntry
	for c := int64(0); c < 200; c += 3 {
		for s := 0; s < f.NumNodes; s += 2 {
			entries = append(entries, sim.TraceEntry{Cycle: c, Src: topo.NodeID(s), Dst: topo.NodeID((5*s + int(c)) % f.NumNodes), Size: 2})
		}
	}
	var trace bytes.Buffer
	if err := sim.WriteTraceJSONL(&trace, entries); err != nil {
		t.Fatal(err)
	}

	modes := []struct {
		name string
		run  func(h sim.RunHooks) (any, error)
	}{
		{"load point", func(h sim.RunHooks) (any, error) {
			return sim.RunLoadPoint(g, alg(), cfg, point(h))
		}},
		{"sweep", func(h sim.RunHooks) (any, error) {
			return sim.LoadSweep(g, alg(), cfg, point(h), []float64{0.2, 0.6})
		}},
		{"batch", func(h sim.RunHooks) (any, error) {
			return sim.RunBatch(g, alg(), cfg, sim.BatchConfig{Pattern: traffic.NewUniform(f.NumNodes), BatchSize: 6, RunHooks: h})
		}},
		{"collective", func(h sim.RunHooks) (any, error) {
			return sim.RunCollective(g, alg(), cfg, sim.CollectiveConfig{
				Kind: sim.CollectiveAllReduce, Packets: 2, Source: point(h).Source, Load: 0.2, Warmup: 50, RunHooks: h,
			})
		}},
		{"closed loop", func(h sim.RunHooks) (any, error) {
			return sim.RunClosedLoop(g, alg(), cfg, sim.ClosedLoopConfig{
				Window: 2, Pattern: traffic.NewUniform(f.NumNodes), Warmup: 150, Measure: 150, RunHooks: h,
			})
		}},
		{"trace replay", func(h sim.RunHooks) (any, error) {
			n, err := sim.New(g, alg(), cfg)
			if err != nil {
				return nil, err
			}
			h.Attach(n)
			var latency int64
			n.AttachHooks(&sim.Hooks{Deliver: func(p *sim.Packet, c int64) { latency += c - p.InjectCycle }})
			injected, err := n.ReplayTrace(sim.NewTraceScanner(bytes.NewReader(trace.Bytes())), 0, h.Stop)
			return [3]int64{injected, n.Cycle(), latency}, err
		}},
		{"checkpoint", func(h sim.RunHooks) (any, error) {
			var snap bytes.Buffer
			rc := point(h)
			rc.Checkpoint = &snap
			res, err := sim.RunLoadPoint(g, alg(), cfg, rc)
			return fmt.Sprintf("%+v snapshot %x", res, sha256.Sum256(snap.Bytes())), err
		}},
		{"restore", func(h sim.RunHooks) (any, error) {
			rc := point(h)
			rc.Resume = bytes.NewReader(warm.Bytes())
			return sim.RunLoadPoint(g, alg(), cfg, rc)
		}},
	}

	observers := []struct {
		name string
		arm  func(h *sim.RunHooks) (saw func() error)
	}{
		{"sanitizer", func(h *sim.RunHooks) func() error {
			return check.Arm(&h.Attach, check.Config{})
		}},
		{"flit tracer", func(h *sim.RunHooks) func() error {
			tr := telemetry.NewTracer(1 << 12)
			h.Attach = func(n *sim.Network) { n.AttachTracer(tr) }
			return func() error {
				if tr.Len() == 0 {
					return errors.New("no flit events")
				}
				return nil
			}
		}},
		{"probes", func(h *sim.RunHooks) func() error {
			var p *sim.Probes
			h.Attach = func(n *sim.Network) { p = n.AttachProbes(sim.ProbeConfig{Stride: 8}) }
			return func() error {
				if p == nil || p.Grants == 0 {
					return errors.New("no grants probed")
				}
				return nil
			}
		}},
		{"RecordTrace", func(h *sim.RunHooks) func() error {
			var rec *[]sim.TraceEntry
			h.Attach = func(n *sim.Network) { rec = n.RecordTrace() }
			return func() error {
				if rec == nil || len(*rec) == 0 {
					return errors.New("no packets recorded")
				}
				return nil
			}
		}},
	}

	for _, m := range modes {
		plain, err := m.run(sim.RunHooks{Attach: func(*sim.Network) {}})
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		expectArmed(t, m.name, func(h sim.RunHooks) error { _, err := m.run(h); return err })
		want := fmt.Sprintf("%+v", plain)
		for _, o := range observers {
			var h sim.RunHooks
			saw := o.arm(&h)
			got, err := m.run(h)
			if err != nil {
				t.Fatalf("%s with %s: %v", m.name, o.name, err)
			}
			if err := saw(); err != nil {
				t.Errorf("%s with %s: %v", m.name, o.name, err)
			}
			if g := fmt.Sprintf("%+v", got); g != want {
				t.Errorf("%s with %s perturbed the result:\nplain    %s\nobserved %s", m.name, o.name, want, g)
			}
		}
	}
}

// expectArmed is the witness that Arm attaches a sanitizer to every
// network run builds: with a credit leaked on each of them, after the
// hooks Arm installed, the armed sanitizer must report the leak.
func expectArmed(t *testing.T, name string, run func(sim.RunHooks) error) {
	t.Helper()
	var h sim.RunHooks
	done := check.Arm(&h.Attach, check.Config{})
	armed := h.Attach
	h.Attach = func(n *sim.Network) {
		armed(n)
		for p := range n.Graph().Routers[0].Out {
			for v := 0; v < n.VCs(); v++ {
				if n.InjectFault(sim.FaultLeakCredit, 0, p, v) == nil {
					return
				}
			}
		}
		t.Errorf("%s: no credit to leak at router 0", name)
	}
	if err := run(h); err != nil {
		t.Fatalf("%s with a leaked credit: %v", name, err)
	}
	if err := done(); err == nil || !strings.Contains(err.Error(), check.KindChannelAudit) {
		t.Errorf("%s: a leaked credit went unreported (%v): Arm attached no sanitizer", name, err)
	}
}

// TestFaultsCaughtAfterRestore injects each deliberate fault, at the same
// site and cycle, into a straight run and into its twin restored from a
// snapshot under a fresh sanitizer. The restored sanitizer starts from the
// snapshot's VC owners, in-flight packets and delivery count, so the two
// must record the same violations: cycle, kind, channel and detail. Its
// watchdog counts from the restore cycle rather than the last delivery;
// the seize-VC verdicts agree because flits are delivered between the
// restore and the fault.
func TestFaultsCaughtAfterRestore(t *testing.T) {
	f, err := topo.NewFlatFly(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		fault   sim.FaultKind
		kind    string
		pktSize int
		speedup int
		pattern traffic.Pattern
		all     bool // fault every viable site, not just the first
		cycles  int
	}{
		{"drop", sim.FaultDropFlit, check.KindChannelAudit, 1, 1, traffic.NewUniform(f.NumNodes), false, 2},
		{"leak", sim.FaultLeakCredit, check.KindChannelAudit, 1, 0, traffic.NewUniform(f.NumNodes), false, 2},
		{"dup-credit", sim.FaultDupCredit, check.KindChannelAudit, 1, 0, traffic.NewUniform(f.NumNodes), false, 2},
		{"free-VC", sim.FaultFreeVC, check.KindDoubleGrant, 6, 0, traffic.NewUniform(f.NumNodes), true, 500},
		{"seize-VC", sim.FaultSeizeVC, check.KindDeadlock, 1, 0, traffic.NewWorstCase(4, 4), true, 600},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := sim.DefaultConfig()
			cfg.PacketSize, cfg.Speedup = tc.pktSize, tc.speedup
			ccfg := check.Config{WatchdogCycles: 200}
			straight, err := sim.New(f.Graph(), routing.NewMinAD(f), cfg)
			if err != nil {
				t.Fatal(err)
			}
			setPattern(t, straight, tc.pattern)
			want := check.Attach(straight, ccfg)
			stepLoaded(t, straight, 0.8, 50)
			var snap bytes.Buffer
			if err := straight.Snapshot(&snap); err != nil {
				t.Fatal(err)
			}
			twin, err := sim.Restore(&snap, f.Graph(), routing.NewMinAD(f), cfg)
			if err != nil {
				t.Fatal(err)
			}
			setPattern(t, twin, tc.pattern)
			got := check.Attach(twin, ccfg)
			nets := []*sim.Network{straight, twin}
			step := func(cycles int) {
				for _, n := range nets {
					stepLoaded(t, n, 0.8, cycles)
				}
			}
			faulted := false
			for attempt := 0; attempt < 2000 && !faulted; attempt++ {
				for r := range f.Graph().Routers {
					ports := len(f.Graph().Routers[r].Out) // input ports too, for FaultDropFlit
					for p := 0; p < ports && (tc.all || !faulted); p++ {
						for v := 0; v < straight.VCs() && (tc.all || !faulted); v++ {
							if straight.InjectFault(tc.fault, topo.RouterID(r), p, v) == nil {
								if err := twin.InjectFault(tc.fault, topo.RouterID(r), p, v); err != nil {
									t.Fatalf("fault site viable straight through but not restored: %v", err)
								}
								faulted = true
							}
						}
					}
				}
				if !faulted {
					step(1)
				}
			}
			if !faulted {
				t.Fatal("no viable fault site found")
			}
			step(tc.cycles)
			expectKind(t, want, tc.kind, tc.kind != check.KindDeadlock)
			if !reflect.DeepEqual(want.Violations(), got.Violations()) {
				t.Fatalf("restored sanitizer's verdicts differ from the straight run's:\nstraight %v\nrestored %v",
					want.Violations(), got.Violations())
			}
		})
	}
}
