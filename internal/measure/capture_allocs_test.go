//go:build !race

// Allocation counts under the race detector are not the build's (its
// sync.Pool drops items at random), so this file stays out of -race runs.

package measure

import (
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// TestCaptureDayAllocs pins the campaign's capture at zero allocations
// once its scratch is warm — the claim set, the sighting buffer and the
// pooled draw positions.
func TestCaptureDayAllocs(t *testing.T) {
	n := parallelTestNet(t)
	o := n.NewObserver(DefaultObserverFleet(8)[0])
	claimed := n.NewClaimSet()
	var recs []sim.Sighting
	for _, day := range []int{12, 13} { // warm the scratch on both days
		clear(claimed)
		if recs = o.CaptureDay(day, claimed, recs[:0]); len(recs) == 0 {
			t.Fatalf("observer captured nothing on day %d", day)
		}
	}
	day := 0
	allocs := testing.AllocsPerRun(100, func() {
		clear(claimed)
		recs = o.CaptureDay(12+day%2, claimed, recs[:0])
		day++
	})
	if allocs != 0 {
		t.Fatalf("a warm CaptureDay makes %.0f allocations, want 0", allocs)
	}
}

// TestCaptureDayGrowsScratchOnce: on a cold worker, capturing a day
// reallocates the unit buffer at most once — it is sized to the day's
// active peers before the first observer, not regrown observer by
// observer as the fleet's sightings pile up.
func TestCaptureDayGrowsScratchOnce(t *testing.T) {
	n := parallelTestNet(t)
	c, err := NewCampaign(n, CampaignConfig{Observers: DefaultObserverFleet(20), StartDay: 0, EndDay: 30, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := c.newDayWorker()
	c.captureDay(12, w) // warm the pooled draw positions
	allocs := testing.AllocsPerRun(20, func() {
		w.recs = nil
		c.captureDay(12, w)
	})
	if allocs > 1 {
		t.Fatalf("capturing a day on a cold buffer makes %.0f allocations, want at most 1", allocs)
	}
}

// TestTrackAllocatesNothing pins the census tracks at zero allocations
// per sighting once the Dataset is sized: a peer's first observation
// carves its seen words from the slab, and a repeat one only marks a bit.
func TestTrackAllocatesNothing(t *testing.T) {
	const peers, runs = 256, 100
	ds := NewDataset(0, 90)
	ds.sizeTracks(peers)
	next := int32(0)
	if allocs := testing.AllocsPerRun(runs, func() {
		ds.track(next, 7)
		next++
	}); allocs != 0 {
		t.Fatalf("a first ds.track allocates %.1f times", allocs)
	}
	if got := ds.TotalPeers(); got != runs+1 { // AllocsPerRun warms up once
		t.Fatalf("TotalPeers = %d after %d first sightings", got, runs+1)
	}
	if allocs := testing.AllocsPerRun(runs, func() {
		ds.track(3, 40)
	}); allocs != 0 {
		t.Fatalf("a repeat ds.track allocates %.1f times", allocs)
	}
	if tr := &ds.tracks[3]; tr.FirstDay != 7 || tr.LastDay != 40 || ds.TotalPeers() != runs+1 {
		t.Fatalf("repeats moved the window to [%d, %d] or the count to %d", tr.FirstDay, tr.LastDay, ds.TotalPeers())
	}
}
