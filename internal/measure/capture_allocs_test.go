//go:build !race

// Allocation counts under the race detector are not the build's (its
// sync.Pool drops items at random), so this file stays out of -race runs.

package measure

import (
	"strings"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// TestCaptureDayAllocs pins the campaign's capture at zero allocations
// once its scratch is warm — the claim set, the sighting buffer and the
// pooled draw positions — and checks that a campaign memoizes no
// observer-day: CaptureDay draws through DrawDay, never ObserveDay, so
// the observe_day memo is neither filled (a miss) nor read (a hit).
func TestCaptureDayAllocs(t *testing.T) {
	n := parallelTestNet(t)
	fleet := DefaultObserverFleet(8)
	o := n.NewObserver(fleet[0])
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

	r, _ := withObs(t, false)
	c, err := NewCampaign(n, CampaignConfig{Observers: fleet, EndDay: 30, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	text := r.RenderText()
	for _, series := range []string{
		`i2p_cache_misses_total{ring="observe_day"} 0`,
		`i2p_cache_hits_total{ring="observe_day"} 0`,
	} {
		if !strings.Contains(text, series+"\n") {
			t.Errorf("after a campaign, want %s:\n%s", series, text)
		}
	}
}
