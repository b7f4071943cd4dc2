package obs

import "sync/atomic"

// Lazy is a package's set of instrument handles (a struct T of
// *Counter, *Gauge, *Histogram fields), resolved against whichever
// registry is enabled. Get costs one atomic load and a nil check while
// observability is disabled and returns T's zero value, whose nil
// handles make every increment a no-op; enabled, the resolution is
// cached per registry and redone when Enable swaps the registry.
type Lazy[T any] struct {
	resolve  func(*Registry) T
	disabled T
	cached   atomic.Pointer[lazyHandles[T]]
}

type lazyHandles[T any] struct {
	reg *Registry
	v   T
}

// NewLazy returns a Lazy resolving through resolve, and registers
// resolve to run on every Enable so a scrape that lands before the
// first use still sees the families at zero. Call it from a package
// variable initialiser.
func NewLazy[T any](resolve func(*Registry) T) *Lazy[T] {
	OnEnable(func(r *Registry) { resolve(r) })
	return &Lazy[T]{resolve: resolve}
}

// Get returns the handles for the enabled registry, or the inert zero
// set when observability is disabled.
func (l *Lazy[T]) Get() *T {
	r := Active()
	if r == nil {
		return &l.disabled
	}
	h := l.cached.Load()
	if h == nil || h.reg != r {
		h = &lazyHandles[T]{reg: r, v: l.resolve(r)}
		l.cached.Store(h)
	}
	return &h.v
}
