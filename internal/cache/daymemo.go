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
	ring  *Ring
	slots []daySlot[T]
}

// daySlot is one study day's value. done flips after the compute, so a
// reader that sees it set may read v without entering the once.
type daySlot[T any] struct {
	once sync.Once
	done atomic.Bool
	v    T
}

// Ring names one family of memos in the i2p_cache_* metric families
// ("censor_obs_ids", "victim_netdb", ...). Declare it as a package
// variable: NewRing registers the series with every enabled registry,
// so a scrape sees the ring at zero before its memos are first used.
type Ring struct {
	stats *obs.Lazy[ringStats]
}

// ringStats is one ring's resolved counters; the zero value (nil
// handles) is the disabled mode.
type ringStats struct {
	hits, misses *obs.Counter
}

// NewRing returns the ring counted under name.
func NewRing(name string) *Ring {
	return &Ring{stats: obs.NewLazy(func(r *obs.Registry) ringStats {
		return ringStats{
			hits: r.CounterVec("i2p_cache_hits_total",
				"DayMemo lookups served without computing, by ring.", "ring").With(name),
			misses: r.CounterVec("i2p_cache_misses_total",
				"DayMemo lookups that computed their day, by ring.", "ring").With(name),
		}
	})}
}

// NewDayMemo returns a memo for days [0, days), counted under ring.
func NewDayMemo[T any](days int, ring *Ring) *DayMemo[T] {
	return &DayMemo[T]{ring: ring, slots: make([]daySlot[T], days)}
}

// Get returns the day's value, computing it at most once. compute must
// be pure in (owner state, day); the result is shared across callers and
// must be treated as read-only. A day outside the memo's range is
// computed on every call and not kept.
func (m *DayMemo[T]) Get(day int, compute func(day int) T) T {
	st := m.ring.stats.Get()
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
