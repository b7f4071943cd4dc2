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

// TestCaptureDayGrowsScratchOnce: on a cold dayCapture, capturing a day
// reallocates the sighting scratch at most once — it is sized to the
// day's active peers before the first observer, not regrown observer by
// observer as the fleet's sightings pile up.
func TestCaptureDayGrowsScratchOnce(t *testing.T) {
	n := parallelTestNet(t)
	c, err := NewCampaign(n, CampaignConfig{Observers: DefaultObserverFleet(20), StartDay: 0, EndDay: 30, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sc := c.newDayCapture()
	u := c.captureDay(12, sc, nil) // warm the unit and the pooled draw positions
	allocs := testing.AllocsPerRun(20, func() {
		sc.recs = nil
		u = c.captureDay(12, sc, u)
	})
	if allocs > 1 {
		t.Fatalf("capturing a day on a cold scratch makes %.0f allocations, want at most 1", allocs)
	}
}
