package measure

import (
	"slices"
	"sort"
	"testing"
)

// referenceSurvivalCurve is SurvivalCurve as it stood before it counted
// tracks by span: one observation per track, sorted by duration, the
// estimator walking each run of equal durations. SurvivalCurve is held to
// it, float for float.
func referenceSurvivalCurve(ds *Dataset) []SurvivalPoint {
	lastDay := ds.EndDay - 1
	type obs struct {
		duration int
		died     bool
	}
	var observations []obs
	for i := range ds.tracks {
		if t := &ds.tracks[i]; t.observed() {
			observations = append(observations, obs{duration: t.Span(), died: int(t.LastDay) < lastDay})
		}
	}
	if len(observations) == 0 {
		return nil
	}
	sort.Slice(observations, func(i, j int) bool {
		return observations[i].duration < observations[j].duration
	})
	curve := []SurvivalPoint{{Days: 0, Probability: 1}}
	surv := 1.0
	atRisk := len(observations)
	for i := 0; i < len(observations); {
		d := observations[i].duration
		deaths, leaving := 0, 0
		for ; i < len(observations) && observations[i].duration == d; i++ {
			if observations[i].died {
				deaths++
			}
			leaving++
		}
		if deaths > 0 && atRisk > 0 {
			surv *= 1 - float64(deaths)/float64(atRisk)
		}
		curve = append(curve, SurvivalPoint{Days: d, Probability: surv})
		atRisk -= leaving
	}
	return curve
}

// referenceSurvivalAt is SurvivalAt as it stood before it took several
// horizons: the curve rebuilt for the one horizon asked.
func referenceSurvivalAt(ds *Dataset, n int) float64 {
	curve := referenceSurvivalCurve(ds)
	if len(curve) == 0 {
		return 0
	}
	p := 1.0
	for _, pt := range curve {
		if pt.Days >= n {
			break
		}
		p = pt.Probability
	}
	return 100 * p
}

// TestSurvivalCurveMatchesReference: on the campaign dataset, on one
// folded over a horizon that leaves most tracks uncensored, and on an
// empty one, SurvivalCurve equals the sort-based estimator point for
// point, and SurvivalAt asked every horizon from -1 to EndDay+2 at once,
// in descending order, equals the one-horizon reference at each.
func TestSurvivalCurveMatchesReference(t *testing.T) {
	n, ds := dataset(t)
	c, err := NewCampaign(n, CampaignConfig{Observers: DefaultObserverFleet(2), StartDay: 3, EndDay: 12})
	if err != nil {
		t.Fatal(err)
	}
	short, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Dataset{ds, short, NewDataset(0, 5)} {
		if got, want := d.SurvivalCurve(), referenceSurvivalCurve(d); !slices.Equal(got, want) {
			t.Fatalf("%d peers: SurvivalCurve\n%v\nreference\n%v", d.TotalPeers(), got, want)
		}
		var horizons []int
		for h := d.EndDay + 2; h >= -1; h-- {
			horizons = append(horizons, h)
		}
		all := d.SurvivalAt(horizons...)
		if len(all) != len(horizons) {
			t.Fatalf("%d values for %d horizons", len(all), len(horizons))
		}
		for i, h := range horizons {
			if want := referenceSurvivalAt(d, h); all[i] != want {
				t.Fatalf("%d peers, horizon %d: SurvivalAt %v, reference %v", d.TotalPeers(), h, all[i], want)
			}
		}
	}
}
