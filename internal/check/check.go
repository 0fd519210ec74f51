// Package check is the simulator's runtime invariant sanitizer. Attached
// to a sim.Network it verifies, per event and per cycle, the conservation
// laws a faithful flit-level model must obey:
//
//   - flit conservation: flits injected == flits ejected + flits alive
//     inside the simulator, every cycle;
//   - credit conservation: for every network channel VC, the credits
//     held upstream, the flits buffered downstream, the flits on the
//     forward channel and the credits on the reverse channel sum to the
//     VC's buffer depth, and per-event credit counts never go negative
//     or exceed the depth;
//   - VC allocation: a downstream virtual channel is never granted to a
//     second packet while a first one holds it, and only the holder may
//     release it;
//   - packet wholeness: every packet ejects exactly PacketSize flits, at
//     its destination's ejection channel, tail last; optionally packets
//     of one (src, dst) flow arrive in injection order (valid only for
//     deterministic routing — adaptive algorithms legally reorder);
//   - forward progress: a watchdog trips when no flit is delivered for
//     WatchdogCycles cycles while flits are in flight, reporting the
//     stuck channels.
//
// The sanitizer is one sim.Hooks set: it composes with probes, tracers
// and other sanitizers on the same network, and detached it costs the
// simulator nothing beyond the empty hook list every pipeline site
// checks. It never perturbs the simulation: results with and without it
// are bit-identical.
package check

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"flatnet/internal/sim"
	"flatnet/internal/topo"
)

// Violation kinds, in rough order of severity.
const (
	KindConservation    = "flit-conservation"   // injected != delivered + alive
	KindChannelAudit    = "credit-conservation" // a channel VC's credit loop lost or forged slots
	KindCreditUnderflow = "credit-underflow"    // credit count went negative
	KindCreditOverflow  = "credit-overflow"     // credit count exceeded the buffer depth
	KindDoubleGrant     = "vc-double-grant"     // a held VC was granted to a second packet
	KindBadRelease      = "vc-bad-release"      // a VC released by a non-holder
	KindWholeness       = "packet-wholeness"    // flit count or tail order wrong
	KindMisdelivery     = "misdelivery"         // flit ejected at the wrong terminal
	KindOrder           = "delivery-order"      // (src,dst) flow delivered out of order
	KindDeadlock        = "deadlock"            // no forward progress with flits in flight
	KindRouteBounds     = "route-bounds"        // routing decision outside the port/VC space
	KindQuiescence      = "quiescence"          // state left behind after a full drain
)

// Config parameterizes Attach. The zero value checks everything every
// cycle with a 10000-cycle watchdog.
type Config struct {
	// Stride is the period in cycles of the deep (O(network)) audits:
	// flit conservation and per-channel credit conservation. <= 0 selects
	// 1 — audit every cycle. Per-event checks are always exact.
	Stride int
	// WatchdogCycles is how long the network may go without delivering a
	// flit, while flits are in flight, before the watchdog declares
	// deadlock. <= 0 selects 10000.
	WatchdogCycles int
	// InOrder additionally asserts that packets of one (src, dst) flow
	// are delivered in injection order. Only valid for deterministic
	// routing (e-cube, destination-based butterfly): adaptive and
	// Valiant-style algorithms legally reorder flows.
	InOrder bool
	// MaxViolations caps recorded violations; further ones are counted
	// but dropped. <= 0 selects 64.
	MaxViolations int
	// OnViolation, when non-nil, observes every violation as it is
	// recorded (including dropped ones) — the hook for dumping a
	// telemetry trace on first failure.
	OnViolation func(Violation)
}

// Violation is one invariant failure, located in time and, when the
// invariant is channel-local, on a (router, port, vc) channel.
type Violation struct {
	Cycle  int64
	Kind   string
	Router topo.RouterID // -1 for network-wide invariants
	Port   int
	VC     int
	Detail string
}

func (v Violation) String() string {
	loc := ""
	if v.Router >= 0 {
		loc = fmt.Sprintf(" [router %d port %d vc %d]", v.Router, v.Port, v.VC)
	}
	return fmt.Sprintf("cycle %d: %s%s: %s", v.Cycle, v.Kind, loc, v.Detail)
}

type chanKey struct {
	r    topo.RouterID
	port int
	vc   int
}

type flowKey struct {
	src, dst topo.NodeID
}

type pktState struct {
	src, dst topo.NodeID
	injected int
	ejected  int
}

// Sanitizer holds the checker state for one attached network. It is not
// safe for concurrent use; attach one per network, from the goroutine
// that steps it.
type Sanitizer struct {
	n   *sim.Network
	g   *topo.Graph
	cfg Config

	depth int // per-VC buffer depth
	vcs   int
	size  int // flits per packet

	owners map[chanKey]int64   // downstream VC -> ID of the packet holding it
	pkts   map[int64]*pktState // in-flight packets by ID
	order  map[flowKey]int64   // last delivered packet ID per (src, dst)

	violations []Violation
	dropped    int

	lastDelivered int64
	lastProgress  int64
	tripped       bool // watchdog fired; disarm it

	detach func()
}

// Attach installs a sanitizer into the network's pipeline and returns it.
// Call Finalize (or Err) after the run; Detach removes the hooks.
func Attach(n *sim.Network, cfg Config) *Sanitizer {
	if cfg.Stride <= 0 {
		cfg.Stride = 1
	}
	if cfg.WatchdogCycles <= 0 {
		cfg.WatchdogCycles = 10000
	}
	if cfg.MaxViolations <= 0 {
		cfg.MaxViolations = 64
	}
	s := &Sanitizer{
		n:      n,
		g:      n.Graph(),
		cfg:    cfg,
		depth:  n.VCDepth(),
		vcs:    n.VCs(),
		size:   n.PacketSize(),
		owners: map[chanKey]int64{},
		pkts:   map[int64]*pktState{},
		order:  map[flowKey]int64{},
	}
	s.detach = n.AttachHooks(&sim.Hooks{
		Inject:       s.inject,
		Route:        s.route,
		Traverse:     s.traverse,
		CreditReturn: s.creditReturn,
		Eject:        s.eject,
		EndCycle:     s.endCycle,
	})
	return s
}

// Detach removes the sanitizer's hook set from the network; other sets
// stay attached.
func (s *Sanitizer) Detach() { s.detach() }

// Violations returns the recorded violations, in discovery order.
func (s *Sanitizer) Violations() []Violation { return s.violations }

// Err returns nil when no invariant tripped, else an error carrying the
// first violations and the total count.
func (s *Sanitizer) Err() error {
	total := len(s.violations) + s.dropped
	if total == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "check: %d invariant violation(s)", total)
	for i, v := range s.violations {
		if i == 3 {
			fmt.Fprintf(&b, "; ... %d more", total-i)
			break
		}
		b.WriteString("; ")
		b.WriteString(v.String())
	}
	return errors.New(b.String())
}

// Finalize runs the end-of-run checks and returns Err. When the network
// is quiescent (fully drained), every tracked packet must have completed,
// every VC must be free, and every channel's credits must be home;
// saturated or aborted runs skip the quiescence checks but keep
// everything observed while running.
func (s *Sanitizer) Finalize() error {
	if s.n.Quiescent() {
		if len(s.pkts) != 0 {
			ids := make([]int64, 0, len(s.pkts))
			for id := range s.pkts {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			for i, id := range ids {
				if i == 4 {
					s.report(Violation{Kind: KindQuiescence, Router: -1,
						Detail: fmt.Sprintf("... and %d more incomplete packets", len(ids)-i)})
					break
				}
				ps := s.pkts[id]
				s.report(Violation{Kind: KindWholeness, Router: -1,
					Detail: fmt.Sprintf("packet %d (src %d dst %d) incomplete after drain: %d/%d flits injected, %d ejected",
						id, ps.src, ps.dst, ps.injected, s.size, ps.ejected)})
			}
		}
		for k, id := range s.owners {
			s.report(Violation{Kind: KindQuiescence, Router: k.r, Port: k.port, VC: k.vc,
				Detail: fmt.Sprintf("VC still held by packet %d after drain", id)})
		}
		s.n.AuditChannels(func(a sim.ChannelAudit) {
			if a.Credits != a.Depth {
				s.report(Violation{Kind: KindQuiescence, Router: a.Router, Port: a.Port, VC: a.VC,
					Detail: fmt.Sprintf("%d/%d credits home after drain (%d buffered, %d flits and %d credits in flight)",
						a.Credits, a.Depth, a.Buffered, a.FlitsInFlight, a.CreditsInFlight)})
			}
		})
	}
	return s.Err()
}

func (s *Sanitizer) report(v Violation) {
	v.Cycle = s.n.Cycle()
	if len(s.violations) < s.cfg.MaxViolations {
		s.violations = append(s.violations, v)
	} else {
		s.dropped++
	}
	if s.cfg.OnViolation != nil {
		s.cfg.OnViolation(v)
	}
}

func (s *Sanitizer) inject(p *sim.Packet, r topo.RouterID, port int, tail bool) {
	ps := s.pkts[p.ID]
	if ps == nil {
		ps = &pktState{src: p.Src, dst: p.Dst}
		s.pkts[p.ID] = ps
	}
	ps.injected++
	if ps.injected > s.size {
		s.report(Violation{Kind: KindWholeness, Router: r, Port: port,
			Detail: fmt.Sprintf("packet %d injected %d flits, PacketSize is %d", p.ID, ps.injected, s.size)})
	}
	if tail && ps.injected != s.size {
		s.report(Violation{Kind: KindWholeness, Router: r, Port: port,
			Detail: fmt.Sprintf("packet %d tail injected after %d/%d flits", p.ID, ps.injected, s.size)})
	}
}

func (s *Sanitizer) route(p *sim.Packet, r topo.RouterID, port, vc int) {
	rd := &s.g.Routers[r]
	if port < 0 || port >= len(rd.Out) || vc < 0 || vc >= s.vcs {
		// The simulator would corrupt state or index out of range on this
		// decision; fail fast with the routing context attached.
		v := Violation{Kind: KindRouteBounds, Router: r, Port: port, VC: vc,
			Detail: fmt.Sprintf("algorithm routed packet %d (src %d dst %d) outside the %d-port x %d-VC space",
				p.ID, p.Src, p.Dst, len(rd.Out), s.vcs)}
		s.report(v)
		panic("check: " + v.String())
	}
	if rd.Out[port].Kind == topo.Unused {
		s.report(Violation{Kind: KindRouteBounds, Router: r, Port: port, VC: vc,
			Detail: fmt.Sprintf("algorithm routed packet %d (src %d dst %d) to an unused port", p.ID, p.Src, p.Dst)})
	}
}

// traverse checks a crossbar traversal onto a network output: the credit
// it spent, the VC its head acquires and the VC its tail releases.
func (s *Sanitizer) traverse(p, prev *sim.Packet, r topo.RouterID, port, vc, credits int, head, tail bool) {
	if s.g.Routers[r].Out[port].Kind != topo.Network {
		return
	}
	if credits < 0 {
		s.report(Violation{Kind: KindCreditUnderflow, Router: r, Port: port, VC: vc,
			Detail: fmt.Sprintf("credit count %d after consume", credits)})
	}
	if head {
		s.vcAcquire(p, prev, r, port, vc)
	}
	if tail {
		s.vcRelease(p, r, port, vc)
	}
}

func (s *Sanitizer) creditReturn(r topo.RouterID, port, vc, after int) {
	if after > s.depth {
		s.report(Violation{Kind: KindCreditOverflow, Router: r, Port: port, VC: vc,
			Detail: fmt.Sprintf("credit count %d after return, buffer depth is %d", after, s.depth)})
	}
}

func (s *Sanitizer) vcAcquire(p, prev *sim.Packet, r topo.RouterID, port, vc int) {
	k := chanKey{r, port, vc}
	if holder, held := s.owners[k]; held && holder != p.ID {
		s.report(Violation{Kind: KindDoubleGrant, Router: r, Port: port, VC: vc,
			Detail: fmt.Sprintf("packet %d granted while packet %d holds the VC", p.ID, holder)})
	} else if prev != nil && prev.ID != p.ID {
		s.report(Violation{Kind: KindDoubleGrant, Router: r, Port: port, VC: vc,
			Detail: fmt.Sprintf("packet %d granted while the allocator records packet %d as owner", p.ID, prev.ID)})
	}
	s.owners[k] = p.ID
}

func (s *Sanitizer) vcRelease(p *sim.Packet, r topo.RouterID, port, vc int) {
	k := chanKey{r, port, vc}
	holder, held := s.owners[k]
	if !held {
		s.report(Violation{Kind: KindBadRelease, Router: r, Port: port, VC: vc,
			Detail: fmt.Sprintf("packet %d released a free VC", p.ID)})
	} else if holder != p.ID {
		s.report(Violation{Kind: KindBadRelease, Router: r, Port: port, VC: vc,
			Detail: fmt.Sprintf("packet %d released a VC held by packet %d", p.ID, holder)})
	}
	delete(s.owners, k)
}

func (s *Sanitizer) eject(p *sim.Packet, r topo.RouterID, port int, tail bool) {
	ps := s.pkts[p.ID]
	if ps == nil {
		s.report(Violation{Kind: KindWholeness, Router: r, Port: port,
			Detail: fmt.Sprintf("flit ejected for unknown or completed packet %d", p.ID)})
		return
	}
	ps.ejected++
	if ps.ejected > ps.injected {
		s.report(Violation{Kind: KindWholeness, Router: r, Port: port,
			Detail: fmt.Sprintf("packet %d ejected %d flits but injected only %d", p.ID, ps.ejected, ps.injected)})
	}
	if s.g.EjRouter[p.Dst] != r || s.g.EjPort[p.Dst] != port {
		s.report(Violation{Kind: KindMisdelivery, Router: r, Port: port,
			Detail: fmt.Sprintf("packet %d for node %d ejected at router %d port %d, expected router %d port %d",
				p.ID, p.Dst, r, port, s.g.EjRouter[p.Dst], s.g.EjPort[p.Dst])})
	}
	if !tail {
		return
	}
	if ps.ejected != s.size {
		s.report(Violation{Kind: KindWholeness, Router: r, Port: port,
			Detail: fmt.Sprintf("packet %d tail ejected after %d/%d flits", p.ID, ps.ejected, s.size)})
	}
	if s.cfg.InOrder {
		fk := flowKey{ps.src, ps.dst}
		if last, ok := s.order[fk]; ok && p.ID < last {
			s.report(Violation{Kind: KindOrder, Router: r, Port: port,
				Detail: fmt.Sprintf("packet %d (src %d dst %d) delivered after packet %d", p.ID, ps.src, ps.dst, last)})
		}
		s.order[fk] = p.ID
	}
	delete(s.pkts, p.ID)
}

func (s *Sanitizer) endCycle() {
	cycle := s.n.Cycle()
	fi, fd := s.n.FlitTotals()
	if cycle%int64(s.cfg.Stride) == 0 {
		buffered, inFlight := s.n.Inventory()
		if fi != fd+int64(buffered)+int64(inFlight) {
			s.report(Violation{Kind: KindConservation, Router: -1,
				Detail: fmt.Sprintf("%d flits injected != %d delivered + %d buffered + %d in flight (%+d)",
					fi, fd, buffered, inFlight, fi-fd-int64(buffered)-int64(inFlight))})
		}
		s.n.AuditChannels(func(a sim.ChannelAudit) {
			if a.Outstanding() != a.Depth {
				s.report(Violation{Kind: KindChannelAudit, Router: a.Router, Port: a.Port, VC: a.VC,
					Detail: fmt.Sprintf("%d credits + %d buffered + %d flits in flight + %d credits in flight = %d, depth is %d",
						a.Credits, a.Buffered, a.FlitsInFlight, a.CreditsInFlight, a.Outstanding(), a.Depth)})
			}
		})
	}
	// Watchdog: deliveries are the progress signal; fi > fd means flits
	// are alive inside the network, so a long delivery silence is either
	// deadlock or livelock.
	if fd > s.lastDelivered {
		s.lastDelivered = fd
		s.lastProgress = cycle
	} else if !s.tripped && fi > fd && cycle-s.lastProgress >= int64(s.cfg.WatchdogCycles) {
		s.tripped = true
		s.report(Violation{Kind: KindDeadlock, Router: -1,
			Detail: s.deadlockDetail(fi - fd)})
	}
}

// deadlockDetail summarizes the stuck state: how many flits are wedged
// and on which channels, so the failure is actionable without re-running
// under a tracer.
func (s *Sanitizer) deadlockDetail(alive int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "no flit delivered for %d cycles with %d flits in the network; stuck channels:", s.cfg.WatchdogCycles, alive)
	shown := 0
	s.n.AuditChannels(func(a sim.ChannelAudit) {
		if a.Buffered == 0 && a.FlitsInFlight == 0 {
			return
		}
		if shown == 8 {
			b.WriteString(" ...")
			shown++
		}
		if shown > 8 {
			return
		}
		fmt.Fprintf(&b, " (router %d port %d vc %d: %d buffered, %d in flight, %d credits)",
			a.Router, a.Port, a.VC, a.Buffered, a.FlitsInFlight, a.Credits)
		shown++
	})
	if shown == 0 {
		b.WriteString(" (all stuck flits sit in terminal injection buffers)")
	}
	return b.String()
}

// Arm chains a fresh sanitizer onto a harness's Attach hook
// (RunConfig.Attach, BatchConfig.Attach, CollectiveConfig.Attach), so
// every network the harness builds runs checked. Call done once, after
// the harness returns: it finalizes the sanitizers and joins their
// violations. A sanitizer whose run is over is finalized (and its
// network released) as soon as the hook attaches the next network. Arm
// one hook per goroutine; the closure state is not locked.
func Arm(attach *func(*sim.Network), cfg Config) (done func() error) {
	var cur *Sanitizer
	var errs []error
	finalize := func() {
		if cur != nil {
			if err := cur.Finalize(); err != nil {
				errs = append(errs, err)
			}
			cur = nil
		}
	}
	prev := *attach
	*attach = func(n *sim.Network) {
		if prev != nil {
			prev(n)
		}
		finalize() // the previous run's sanitizer; its violations stay in errs
		cur = Attach(n, cfg)
	}
	return func() error {
		finalize()
		return errors.Join(errs...)
	}
}
