package censor

// WindowCounter is a sliding multiset over an AddrIndex: for every
// interned address it counts the day-slices (memoized observedIDs
// slices, one per (router, day)) currently contributing it, and keeps
// the membership set — addresses with count > 0 — incrementally
// up to date. AddDay folds one slice in; RemoveDay exactly inverts a
// prior AddDay of the same slice. A blacklist window sliding one day
// forward therefore touches only the entering and expiring day-slices,
// O(Δ) per day, instead of re-unioning every (router, day) slice the
// window covers — the from-scratch cost the rolling sweep rows replace.
//
// Invariant (the expiry-count invariant): the membership set equals
// {id : counts[id] > 0} at all times, and counts[id] equals the number
// of AddDay slices containing id minus the number of RemoveDay slices
// containing it. Removing a slice that was never added violates the
// invariant and corrupts the counter; the sweep rows only ever remove
// slices they previously added. TestWindowCounterRemoveDayInvertsAddDay
// enforces the inversion exactly (counts, set bits and cardinality).
//
// A WindowCounter is not safe for concurrent mutation; each sweep row
// owns one.
type WindowCounter struct {
	counts []int32
	set    *AddrSet
}

// NewWindowCounter returns an empty counter sized for the index's
// address table, recycling a previously released one when available:
// the counts array and set words are the sweep engines' per-row
// allocation hot spot (one table-sized pair per rolling row), so rows
// draw from a per-index pool instead of handing the garbage collector a
// fresh table each time.
func (ix *AddrIndex) NewWindowCounter() *WindowCounter {
	st := poolObs.Get()
	st.gets.Inc()
	if v := ix.wcPool.Get(); v != nil {
		return v.(*WindowCounter) // Reset on release, so ready to use
	}
	st.news.Inc()
	return &WindowCounter{counts: make([]int32, ix.NumAddrs()), set: ix.NewSet()}
}

// ReleaseWindowCounter resets wc and returns it to the index's pool for
// a later NewWindowCounter. The caller must not touch wc afterwards.
// Releasing is optional — an unreleased counter is simply collected —
// and must only ever see counters obtained from the same index.
func (ix *AddrIndex) ReleaseWindowCounter(wc *WindowCounter) {
	poolObs.Get().put.Inc()
	wc.Reset()
	ix.wcPool.Put(wc)
}

// AddDay folds one day-slice into the window. Negative IDs (absent
// addresses) are ignored, matching AddrSet.Add; duplicate IDs within a
// slice count once each, so RemoveDay of the same slice restores the
// counts exactly.
func (w *WindowCounter) AddDay(ids []int32) { w.AddDayFunc(ids, nil) }

// AddDayFunc is AddDay with an enter hook: onEnter (when non-nil) runs
// for each address whose count transitions 0 -> 1 — it just joined the
// window's union — in slice order. It is the incremental-union
// primitive BlockingSeries folds victim membership through: an entering
// address checks the victim set in O(1) instead of the whole union
// being re-intersected.
func (w *WindowCounter) AddDayFunc(ids []int32, onEnter func(id int32)) {
	for _, id := range ids {
		if id < 0 {
			continue
		}
		w.counts[id]++
		if w.counts[id] == 1 {
			w.set.Add(id)
			if onEnter != nil {
				onEnter(id)
			}
		}
	}
}

// RemoveDay expires one day-slice, exactly inverting a prior AddDay of
// the same slice. Addresses whose count reaches zero leave the set.
func (w *WindowCounter) RemoveDay(ids []int32) {
	for _, id := range ids {
		if id < 0 {
			continue
		}
		w.counts[id]--
		if w.counts[id] == 0 {
			w.set.Remove(id)
		}
	}
}

// Reset empties the counter so it can be reused for another row. The
// expiry-count invariant makes the wipe sparse: counts[id] > 0 exactly
// for the set's members, so only those entries need zeroing — O(live
// set + set words) instead of O(address table). A counter corrupted by
// removing a never-added slice (negative counts live outside the set)
// is not rescued by Reset, matching the invariant's existing contract.
func (w *WindowCounter) Reset() {
	w.set.ForEach(func(id int32) { w.counts[id] = 0 })
	w.set.Clear()
}

// Set returns the live membership set (addresses with count > 0). It is
// a view of the counter's state — the next AddDay/RemoveDay changes it —
// and must not be mutated by callers; Clone it to keep a snapshot.
func (w *WindowCounter) Set() *AddrSet { return w.set }

// Len returns the number of distinct addresses in the window.
func (w *WindowCounter) Len() int { return w.set.Len() }

// Has reports window membership; negative IDs are never members.
func (w *WindowCounter) Has(id int32) bool { return w.set.Has(id) }
