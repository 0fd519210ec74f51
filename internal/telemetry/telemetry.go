// Package telemetry is the observability layer of the reproduction: a
// typed metrics registry publishable through expvar, a ring-buffered
// flit event tracer with Chrome-trace and JSONL exporters, and a live
// HTTP metrics endpoint (expvar + pprof) that the long-running commands
// opt into with -listen.
//
// The design constraint throughout is zero overhead when off: the
// simulator's pipeline sites walk a list of attached hook sets (none
// attached means no work beyond an empty-list check), counters are plain
// atomics, and nothing in this package is imported into a hot loop —
// the simulator pushes into telemetry structures, never the reverse.
package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"sync"
	"sync/atomic"
)

// Counter is a monotonic atomic counter, safe for concurrent use. The
// zero value is ready to use.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Registry is a named set of metrics: counters owned by the registry and
// gauges computed on demand. A Registry marshals to one JSON object, so
// publishing it as a single expvar exposes every metric under
// /debug/vars without touching the global expvar namespace per metric.
// All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	names    []string // registration order, for stable snapshots
	counters map[string]*Counter
	gauges   map[string]func() any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]func() any),
	}
}

// Counter returns the named counter, creating and registering it on
// first use. Reusing a gauge's name panics: the registry is typed, and a
// name means one thing.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("telemetry: %q already registered as a gauge", name))
	}
	c := &Counter{}
	r.counters[name] = c
	r.names = append(r.names, name)
	return c
}

// Gauge registers a computed metric: fn is called at snapshot time and
// must return a JSON-marshalable value. Re-registering a name replaces
// its function; reusing a counter's name panics.
func (r *Registry) Gauge(name string, fn func() any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.counters[name]; ok {
		panic(fmt.Sprintf("telemetry: %q already registered as a counter", name))
	}
	if _, ok := r.gauges[name]; !ok {
		r.names = append(r.names, name)
	}
	r.gauges[name] = fn
}

// Snapshot returns the current value of every metric, keyed by name.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]func() any, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	r.mu.Unlock()
	// Gauge functions run outside the lock: they may themselves take
	// locks (e.g. an engine snapshot) and must not deadlock against
	// concurrent registration.
	out := make(map[string]any, len(names))
	for _, name := range names {
		if c, ok := counters[name]; ok {
			out[name] = c.Value()
		} else if fn, ok := gauges[name]; ok {
			out[name] = fn()
		}
	}
	return out
}

// String renders the snapshot as JSON; it makes Registry an expvar.Var.
func (r *Registry) String() string {
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		return fmt.Sprintf("{%q:%q}", "telemetry_error", err.Error())
	}
	return string(b)
}

// Publish registers the whole registry as one expvar under the given
// name, so an expvar endpoint serves it at /debug/vars. The expvar
// namespace is process-global and write-once: publishing the same
// registry twice is a no-op, while a name already taken by anything else
// is reported as an error rather than panicking (expvar's behaviour).
func (r *Registry) Publish(name string) error {
	if existing := expvar.Get(name); existing != nil {
		if v, ok := existing.(*Registry); ok && v == r {
			return nil
		}
		return fmt.Errorf("telemetry: expvar %q is already published", name)
	}
	expvar.Publish(name, r)
	return nil
}
