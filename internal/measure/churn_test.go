package measure

import (
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/stats"
)

// referenceChurnAt is ChurnAt as it stood before ChurnPoints: one walk of
// every track per horizon. ChurnPoints is held to it, float for float.
func referenceChurnAt(ds *Dataset, n int) ChurnPoint {
	cont, inter, total := 0, 0, 0
	for i := range ds.tracks {
		t := &ds.tracks[i]
		if !t.observed() {
			continue
		}
		total++
		if t.LongestRun() >= n {
			cont++
		}
		if t.Span() >= n {
			inter++
		}
	}
	if total == 0 {
		return ChurnPoint{Days: n}
	}
	return ChurnPoint{
		Days:         n,
		Continuous:   100 * float64(cont) / float64(total),
		Intermittent: 100 * float64(inter) / float64(total),
	}
}

// TestChurnPointsMatchReference: at every horizon from -1 to EndDay+2,
// asked one at a time and all at once in descending order, ChurnPoints
// equals the per-horizon walk exactly, on the campaign dataset and on an
// empty one; and Figure 7 renders what the per-horizon loop rendered.
func TestChurnPointsMatchReference(t *testing.T) {
	_, ds := dataset(t)
	for _, d := range []*Dataset{ds, NewDataset(0, 5)} {
		var horizons []int
		for n := d.EndDay + 2; n >= -1; n-- {
			horizons = append(horizons, n)
		}
		all := d.ChurnPoints(horizons...)
		if len(all) != len(horizons) {
			t.Fatalf("%d points for %d horizons", len(all), len(horizons))
		}
		for i, n := range horizons {
			want := referenceChurnAt(d, n)
			if all[i] != want {
				t.Fatalf("%d peers, horizon %d: ChurnPoints %+v, reference %+v", d.TotalPeers(), n, all[i], want)
			}
			if got := d.ChurnAt(n); got != want {
				t.Fatalf("%d peers, horizon %d: ChurnAt %+v, reference %+v", d.TotalPeers(), n, got, want)
			}
		}
		if got := d.ChurnPoints(); len(got) != 0 {
			t.Fatalf("no horizons gave %d points", len(got))
		}

		ref := &stats.Figure{
			Title:  "Figure 7: Percentage of peers seen continuously or intermittently for n days",
			XLabel: "days",
			YLabel: "percentage",
		}
		cont, inter := ref.AddSeries("continuously"), ref.AddSeries("intermittently")
		for _, n := range []int{7, 10, 20, 30, 40, 50, 60, 70, 80} {
			if n > d.EndDay-d.StartDay {
				break
			}
			pt := referenceChurnAt(d, n)
			cont.Append(float64(n), pt.Continuous)
			inter.Append(float64(n), pt.Intermittent)
		}
		fig, extra := d.ChurnFigureWith(7, 30)
		if got, want := fig.Render(), ref.Render(); got != want {
			t.Fatalf("%d peers: Figure 7 renders\n%s\nthe per-horizon loop rendered\n%s", d.TotalPeers(), got, want)
		}
		if extra[0] != referenceChurnAt(d, 7) || extra[1] != referenceChurnAt(d, 30) {
			t.Fatalf("%d peers: extra horizons %+v", d.TotalPeers(), extra)
		}
	}
}
