package measure

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/i2pstudy/i2pstudy/internal/obs"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// This file is the admission layer of the campaign engine: the
// bookkeeping that makes campaign memory O(workers) instead of O(days).
// A day is captured only once it is within window days of the in-order
// fold, so a unit the fold is not about to need cannot exist; completed
// units park in a window-slot ring and are dropped the moment they are
// folded.

// windowFactor is the admission window in days per worker: two, so a
// worker that finishes day d+1 while day d is still being captured or
// folded starts another day instead of stalling.
const windowFactor = 2

// MemStats reports the campaign engine's retained-unit accounting —
// the evidence that a run held O(workers) day units rather than O(days).
type MemStats struct {
	// PeakRetainedUnits is the high-water mark of merged day units
	// simultaneously resident in memory.
	PeakRetainedUnits int
	// UnitsEvicted counts day units written to disk to make room before
	// their fold turn. Admission control makes that impossible, so it
	// always reads 0.
	UnitsEvicted int
}

// MemStats returns the retained-unit accounting of the campaign's most
// recent (or in-progress) run.
func (c *Campaign) MemStats() MemStats {
	return MemStats{PeakRetainedUnits: int(c.peakRetained.Load())}
}

// unitBytes is the resident size of one merged day unit's records.
func unitBytes(recs []sim.Sighting) int64 {
	return int64(len(recs)) * int64(unsafe.Sizeof(sim.Sighting{}))
}

// retainUnit records one merged day unit entering memory.
func (c *Campaign) retainUnit(bytes int64) {
	n := c.retained.Add(1)
	for {
		p := c.peakRetained.Load()
		if n <= p || c.peakRetained.CompareAndSwap(p, n) {
			break
		}
	}
	s := campaignObs.Get()
	s.retained.Add(1)
	s.retainedPeak.Set(c.peakRetained.Load())
	s.residentBytes.Add(bytes)
}

// releaseUnit records one merged day unit leaving memory.
func (c *Campaign) releaseUnit(bytes int64) {
	c.retained.Add(-1)
	s := campaignObs.Get()
	s.retained.Add(-1)
	s.residentBytes.Add(-bytes)
}

// dayUnit is one day's deduplicated observations in canonical
// (peer-index) order — the fold order that makes interned IDs and
// checkpoint bytes independent of which worker captured the day.
type dayUnit struct {
	recs []sim.Sighting
	// bytes is the unit's resident size (see unitBytes), carried so
	// release accounting matches retain accounting exactly.
	bytes int64
}

// dayWindow admits days to capture and orders them for the fold. Tickets
// ascend from the first day; a ticket is issued only against one of
// window admission slots, and a slot is returned only when its day has
// been folded. Folds go in day order, so the days admitted and not yet
// folded are always the contiguous run [next, next+window) or a prefix
// of it: a day outside the window is never captured, and slot
// day%window of the ring is free whenever a day in the window parks.
type dayWindow struct {
	end    int           // first day not to capture
	ticket atomic.Int64  // next day to admit
	slots  chan struct{} // admission semaphore, capacity window

	mu      sync.Mutex
	next    int        // next day to fold
	parked  []*dayUnit // parked[day%window], nil while the day is not in
	folding bool       // a worker holds day next outside the ring
}

func newDayWindow(from, end, window int) *dayWindow {
	w := &dayWindow{end: end, slots: make(chan struct{}, window), next: from, parked: make([]*dayUnit, window)}
	w.ticket.Store(int64(from))
	return w
}

// admit blocks until the next day is inside the window and returns it;
// ok is false once every day has been handed out.
func (w *dayWindow) admit(ctx context.Context) (day int, ok bool, err error) {
	if err := ctx.Err(); err != nil {
		return 0, false, err
	}
	select {
	case w.slots <- struct{}{}:
	case <-ctx.Done():
		return 0, false, ctx.Err()
	}
	day = int(w.ticket.Add(1)) - 1
	if day >= w.end {
		<-w.slots
		return 0, false, nil
	}
	return day, true, nil
}

// put parks a captured day for the fold. A day outside the window is
// refused: admit cannot have issued it.
func (w *dayWindow) put(day int, u *dayUnit) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if day < w.next || day >= w.next+len(w.parked) || w.parked[day%len(w.parked)] != nil {
		return fmt.Errorf("measure: day %d parked outside the fold window [%d, %d)", day, w.next, w.next+len(w.parked))
	}
	w.parked[day%len(w.parked)] = u
	return nil
}

// take hands the caller the next day to fold if it is parked and no
// other worker is folding. The caller folds it and then calls folded;
// until then every other take reports nothing, which is what keeps the
// fold in ascending day order without a goroutine of its own.
func (w *dayWindow) take() (day int, u *dayUnit, ok bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	slot := w.next % len(w.parked)
	if w.folding || w.parked[slot] == nil {
		return 0, nil, false
	}
	u, w.parked[slot] = w.parked[slot], nil
	w.folding = true
	return w.next, u, true
}

// folded ends the caller's fold turn and returns the day's admission
// slot, moving the window one day on.
func (w *dayWindow) folded() {
	w.mu.Lock()
	w.next++
	w.folding = false
	w.mu.Unlock()
	<-w.slots
}

// drain returns the units still parked when a run stops early.
func (w *dayWindow) drain() []*dayUnit {
	w.mu.Lock()
	defer w.mu.Unlock()
	var left []*dayUnit
	for i, u := range w.parked {
		if u != nil {
			left = append(left, u)
			w.parked[i] = nil
		}
	}
	return left
}

// campaignStats holds the campaign engine's instrument handles.
type campaignStats struct {
	retained      *obs.Gauge // i2p_measure_retained_units
	retainedPeak  *obs.Gauge // i2p_measure_retained_units_peak
	residentBytes *obs.Gauge // i2p_measure_resident_bytes
}

var campaignObs = obs.NewLazy(func(r *obs.Registry) campaignStats {
	return campaignStats{
		retained: r.Gauge("i2p_measure_retained_units",
			"Merged day units currently resident in campaign memory."),
		retainedPeak: r.Gauge("i2p_measure_retained_units_peak",
			"High-water mark of simultaneously resident merged day units."),
		residentBytes: r.Gauge("i2p_measure_resident_bytes",
			"Bytes of merged day records (sightings) resident in campaign memory."),
	}
})
