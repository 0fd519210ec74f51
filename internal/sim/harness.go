package sim

import (
	"errors"
	"fmt"
	"io"

	"flatnet/internal/topo"
)

// ErrStopped is returned (wrapped) when a run's Stop hook asks it to
// abort before completing.
var ErrStopped = errors.New("sim: run stopped")

// ErrResume is returned (wrapped) when RunConfig.Resume is set but the
// snapshot cannot be restored — corrupt bytes, a format-version skew, or
// a mismatched topology/algorithm/config. Callers holding a cached
// snapshot can match this error to discard it and rerun cold.
var ErrResume = errors.New("sim: resume snapshot rejected")

// stopPollMask throttles Stop polling to every 256 cycles so the hook
// (which may read a clock) stays off the simulation hot path.
const stopPollMask = 0xff

// harness is the run skeleton of RunLoadPoint, RunBatch, RunCollective,
// RunClosedLoop and ReplayTrace: it counts the run in Live and steps the
// network, polling Stop and publishing Live every 256 cycles, neither of
// which touches simulation state. Each harness adds only its own body:
// what it injects, when it is done and what it measures.
type harness struct {
	n    *Network
	stop func() bool
	// cycles and delivered are the run's totals already added to Live.
	cycles, delivered int64
}

// RunHooks are the two hooks every run harness takes; RunConfig,
// BatchConfig, CollectiveConfig and ClosedLoopConfig embed them.
type RunHooks struct {
	// Stop, when non-nil, is polled every 256 cycles; returning true
	// aborts the run with an error wrapping ErrStopped. It is the hook
	// for cancellation and wall-clock budgets and never perturbs the run.
	Stop func() bool
	// Attach, when non-nil, is called with each network the run builds
	// or restores, before its first cycle: the hook that installs
	// observers, any mix of hook sets (Network.AttachHooks) such as
	// probes, flit tracers, RecordTrace or the check.Arm sanitizer.
	// Observers never change results; each starts from the network it
	// is handed, so a LoadSweep attaches once per load point.
	Attach func(n *Network)
}

// openHarness builds the run's network, or restores it from resume when
// that is non-nil, hands it to hooks.Attach for instrumentation, and
// starts the run. The caller defers close.
func openHarness(g *topo.Graph, alg Algorithm, cfg Config, resume io.Reader, hooks RunHooks) (harness, error) {
	var n *Network
	var err error
	if resume != nil {
		if n, err = Restore(resume, g, alg, cfg); err != nil {
			return harness{}, fmt.Errorf("%w: %w", ErrResume, err)
		}
	} else if n, err = New(g, alg, cfg); err != nil {
		return harness{}, err
	}
	if hooks.Attach != nil {
		hooks.Attach(n)
	}
	return track(n, hooks.Stop), nil
}

// track starts a run on a network the caller built and owns; the caller
// defers finish.
func track(n *Network, stop func() bool) harness {
	Live.RunsStarted.Add(1)
	return harness{n: n, stop: stop}
}

// step advances the network one cycle. Every 256 cycles it first
// publishes the run's Live counters and polls Stop; a true Stop aborts
// the run, before the cycle, with an error wrapping ErrStopped.
func (h *harness) step() error {
	if c := h.n.Cycle(); c&stopPollMask == 0 {
		h.publish()
		if h.stop != nil && h.stop() {
			return fmt.Errorf("at cycle %d: %w", c, ErrStopped)
		}
	}
	h.n.Step()
	return nil
}

// publish adds the run's cycles and deliveries since the last publish to
// Live.
func (h *harness) publish() {
	c := h.n.Cycle()
	_, d := h.n.Totals()
	Live.Cycles.Add(c - h.cycles)
	Live.PacketsDelivered.Add(d - h.delivered)
	h.cycles, h.delivered = c, d
}

// finish publishes the run's last counts and counts it finished.
func (h *harness) finish() {
	h.publish()
	Live.RunsFinished.Add(1)
}

// close finishes the run and closes the network openHarness built.
func (h *harness) close() {
	h.finish()
	h.n.Close()
}
