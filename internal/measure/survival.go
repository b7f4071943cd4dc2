package measure

// This file implements a right-censored lifetime estimator for the churn
// analysis. The paper's Figure 7 statistic ("percentage of peers seen for
// at least n days") is biased downward near the end of a finite campaign:
// a peer first seen ten days before the study ends can never exhibit a
// 30-day span even if it stays for months. The Kaplan–Meier estimator
// treats peers still present on the final day as censored rather than
// dead, correcting the bias — the standard tool for exactly this problem,
// and the extension we use to check the 45-day default horizon against the
// paper's 90-day numbers.

// SurvivalPoint is one step of the estimated survival function.
type SurvivalPoint struct {
	// Days is the lifetime t.
	Days int
	// Probability is the estimated P(lifetime >= t).
	Probability float64
}

// SurvivalCurve computes the Kaplan–Meier estimate of peer intermittent
// lifetime (first-to-last span). A peer whose last observation falls on
// the campaign's final day is right-censored: its true lifetime is only
// known to be at least its observed span.
//
// Spans are whole days, so one pass counts the tracks by span — and, of
// those, the ones that died (were last seen before the final day) — and
// the estimator walks the counts in ascending span order: the order a
// sort by span would give, without materializing an observation per
// peer.
func (ds *Dataset) SurvivalCurve() []SurvivalPoint {
	if ds.observed == 0 {
		return nil
	}
	lastDay := ds.EndDay - 1
	// leaving[d] counts the observed tracks whose span is d, deaths[d]
	// those of them last seen before lastDay. Dataset.eachTrack skips the
	// zero tracks of peers never observed; an observed track's window is
	// opened by its first observation (TestTracksAlwaysObserved), so its
	// span is at least 1 and the clamp only guards the index.
	leaving := make([]int, ds.EndDay-ds.StartDay+1)
	deaths := make([]int, len(leaving))
	ds.eachTrack(func(_ int, t *PeerTrack) {
		d := max(t.Span(), 0)
		if d >= len(leaving) {
			leaving = append(leaving, make([]int, d+1-len(leaving))...)
			deaths = append(deaths, make([]int, d+1-len(deaths))...)
		}
		leaving[d]++
		if int(t.LastDay) < lastDay {
			deaths[d]++
		}
	})

	curve := []SurvivalPoint{{Days: 0, Probability: 1}}
	surv := 1.0
	atRisk := ds.observed
	for d, n := range leaving {
		if n == 0 {
			continue
		}
		if deaths[d] > 0 && atRisk > 0 {
			surv *= 1 - float64(deaths[d])/float64(atRisk)
		}
		curve = append(curve, SurvivalPoint{Days: d, Probability: surv})
		atRisk -= n
	}
	return curve
}

// SurvivalAt returns the Kaplan–Meier P(lifetime >= n days) in percent at
// each of the horizons, in order, interpolating the step function of one
// SurvivalCurve. It is the censoring-corrected counterpart of
// ChurnPoints' Intermittent shares.
func (ds *Dataset) SurvivalAt(horizons ...int) []float64 {
	out := make([]float64, len(horizons))
	curve := ds.SurvivalCurve()
	if len(curve) == 0 {
		return out
	}
	// The survival function is right-continuous: P(T >= n) is the value
	// just before the step at n, i.e. the probability at the largest
	// duration < n... with spans measured inclusively, P(T >= n) is the
	// curve value at the last point with Days < n.
	for i, n := range horizons {
		p := 1.0
		for _, pt := range curve {
			if pt.Days >= n {
				break
			}
			p = pt.Probability
		}
		out[i] = 100 * p
	}
	return out
}
