// Package cache provides the per-day memo the engines share: one slot per
// study day, lock-free on a hit. Values must be pure functions of (owner
// state, day), so a memo can never change a result, only its cost — and
// because a memo is sized to its network's days, it can never hold more
// days than the network has.
package cache

import (
	"sync"
	"sync/atomic"

	"github.com/i2pstudy/i2pstudy/internal/obs"
)

// DayMemo memoizes one value per study day. A hit is one atomic load;
// concurrent first callers of one day share a single compute through
// the slot's once. A DayMemo must not be copied after first use.
type DayMemo[T any] struct {
	// ring names this memo's series in the i2p_cache_* metric families
	// ("observe_day", "victim_addrset", ...).
	ring  string
	slots []daySlot[T]

	// stats caches this memo's instrument handles per enabled registry;
	// nil/handles-nil while observability is disabled.
	stats atomic.Pointer[dayMemoStats]
}

// daySlot is one study day's value. done flips after the compute, so a
// reader that sees it set may read v without entering the once.
type daySlot[T any] struct {
	once sync.Once
	done atomic.Bool
	v    T
}

// NewDayMemo returns a memo for days [0, days), counted under the named
// ring.
func NewDayMemo[T any](days int, ring string) *DayMemo[T] {
	return &DayMemo[T]{ring: ring, slots: make([]daySlot[T], days)}
}

// dayMemoStats is one memo's resolved instrument handles. A zero value
// (all counters nil) is the disabled mode.
type dayMemoStats struct {
	reg          *obs.Registry
	hits, misses *obs.Counter
}

var disabledDayMemoStats = &dayMemoStats{}

const (
	hitsFamily   = "i2p_cache_hits_total"
	missesFamily = "i2p_cache_misses_total"

	hitsHelp   = "DayMemo lookups served without computing, by ring."
	missesHelp = "DayMemo lookups that computed their day, by ring."
)

// getStats resolves the memo's counters against the enabled registry,
// caching per registry identity. Disabled cost: one atomic load and a
// nil check.
func (m *DayMemo[T]) getStats() *dayMemoStats {
	r := obs.Active()
	if r == nil {
		return disabledDayMemoStats
	}
	s := m.stats.Load()
	if s != nil && s.reg == r {
		return s
	}
	s = &dayMemoStats{
		reg:    r,
		hits:   r.CounterVec(hitsFamily, hitsHelp, "ring").With(m.ring),
		misses: r.CounterVec(missesFamily, missesHelp, "ring").With(m.ring),
	}
	m.stats.Store(s)
	return s
}

// PreRegisterRing eagerly materializes the named ring's series in every
// enabled registry, so a scrape sees the ring at zero before its memo is
// first exercised. Owner packages call it from init for each ring name
// they assign.
func PreRegisterRing(ring string) {
	obs.OnEnable(func(r *obs.Registry) {
		r.CounterVec(hitsFamily, hitsHelp, "ring").With(ring)
		r.CounterVec(missesFamily, missesHelp, "ring").With(ring)
	})
}

// Get returns the day's value, computing it at most once. compute must
// be pure in (owner state, day); the result is shared across callers and
// must be treated as read-only. A day outside the memo's range is
// computed on every call and not kept.
func (m *DayMemo[T]) Get(day int, compute func(day int) T) T {
	st := m.getStats()
	if day < 0 || day >= len(m.slots) {
		st.misses.Inc()
		return compute(day)
	}
	s := &m.slots[day]
	if s.done.Load() {
		st.hits.Inc()
		return s.v
	}
	// The compute runs inside this slot's once only, so distinct days
	// never serialize; callers that lose the race wait for the winner.
	computed := false
	s.once.Do(func() {
		computed = true
		s.v = compute(day)
		s.done.Store(true)
	})
	if computed {
		st.misses.Inc()
	} else {
		st.hits.Inc()
	}
	return s.v
}
