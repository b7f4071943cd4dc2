// Package obs is the unified observability layer shared by the batch
// engines and the resident daemon: a zero-dependency, lock-free-on-hot-path
// metrics registry (counters, gauges, one-shape histograms rendered in the
// Prometheus text exposition format) plus a structured tracer emitting
// Chrome trace-event JSON that Perfetto loads directly.
//
// The layer is wired through two process-global switches:
//
//   - Enable(reg) activates counting. Instrumented packages resolve their
//     instrument handles against the active registry lazily and cache them
//     per registry, so the disabled hot-path cost is one atomic load and a
//     nil check (Active() == nil), and enabling never requires plumbing a
//     registry through engine constructors.
//   - EnableTrace(tr) activates span emission the same way.
//
// Hard contract: observability is output-invariant. Counters and spans
// record scheduling facts (tasks run, cache hits, span timings) —
// they must never influence a result. The worker-determinism goldens run
// with both switches on (internal/measure/enginetest) to enforce this.
package obs

import (
	"sync"
	"sync/atomic"
)

// active is the process-global registry instrumentation points count into;
// nil (the default) disables counting.
var active atomic.Pointer[Registry]

// activeTracer is the process-global span sink; nil disables tracing.
var activeTracer atomic.Pointer[Tracer]

// onEnable holds hooks run whenever a registry is enabled, so instrumented
// packages can materialize their metric families eagerly — a scrape right
// after Enable sees every family at zero instead of only the ones already
// exercised.
var (
	hooksMu sync.Mutex
	hooks   []func(*Registry)
)

// Enable installs r as the process-global registry (nil disables
// counting) and runs the registered OnEnable hooks against it. Safe for
// concurrent use; instrumentation in flight keeps counting into whichever
// registry it resolved, so swapping mid-run loses no invariant — only
// where new counts land.
func Enable(r *Registry) {
	active.Store(r)
	if r == nil {
		return
	}
	hooksMu.Lock()
	hs := append([]func(*Registry){}, hooks...)
	hooksMu.Unlock()
	for _, h := range hs {
		h(r)
	}
}

// Active returns the enabled registry, nil when counting is disabled.
func Active() *Registry { return active.Load() }

// OnEnable registers a hook run against every subsequently enabled
// registry (and immediately against the currently active one, if any).
// Instrumented packages call it from init to pre-create their families.
func OnEnable(fn func(*Registry)) {
	hooksMu.Lock()
	hooks = append(hooks, fn)
	hooksMu.Unlock()
	if r := Active(); r != nil {
		fn(r)
	}
}

// EnableTrace installs t as the process-global tracer (nil disables span
// emission).
func EnableTrace(t *Tracer) { activeTracer.Store(t) }

// ActiveTracer returns the enabled tracer, nil when tracing is disabled.
func ActiveTracer() *Tracer { return activeTracer.Load() }
