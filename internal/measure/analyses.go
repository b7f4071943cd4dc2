package measure

import (
	"fmt"
	"slices"
	"strconv"

	"github.com/i2pstudy/i2pstudy/internal/geo"
	"github.com/i2pstudy/i2pstudy/internal/netdb"
	"github.com/i2pstudy/i2pstudy/internal/stats"
)

// PopulationTimeline reproduces Figure 5: daily unique peers and unique IP
// addresses (all, IPv4, IPv6).
func (ds *Dataset) PopulationTimeline() *stats.Figure {
	fig := &stats.Figure{
		Title:  "Figure 5: Number of unique peers and IP addresses",
		XLabel: "day",
		YLabel: "observed peers / IPs",
	}
	routers := fig.AddSeries("routers")
	all := fig.AddSeries("all IP")
	v4 := fig.AddSeries("IPv4")
	v6 := fig.AddSeries("IPv6")
	for _, d := range ds.Days {
		x := float64(d.Day)
		routers.Append(x, float64(d.Peers))
		all.Append(x, float64(d.IPAll))
		v4.Append(x, float64(d.IPv4))
		v6.Append(x, float64(d.IPv6))
	}
	return fig
}

// UnknownIPTimeline reproduces Figure 6: daily unknown-IP peers split into
// firewalled, hidden and overlapping.
func (ds *Dataset) UnknownIPTimeline() *stats.Figure {
	fig := &stats.Figure{
		Title:  "Figure 6: Number of peers with unknown IP addresses",
		XLabel: "day",
		YLabel: "observed peers",
	}
	unknown := fig.AddSeries("unknown-IP")
	fw := fig.AddSeries("firewalled")
	hidden := fig.AddSeries("hidden")
	overlap := fig.AddSeries("overlapping")
	for _, d := range ds.Days {
		x := float64(d.Day)
		unknown.Append(x, float64(d.UnknownIP))
		fw.Append(x, float64(d.Firewalled))
		hidden.Append(x, float64(d.Hidden))
		overlap.Append(x, float64(d.Overlap))
	}
	return fig
}

// ChurnPoint is one (horizon, percentage) churn measurement.
type ChurnPoint struct {
	Days         int
	Continuous   float64
	Intermittent float64
}

// ChurnAt returns the percentage of observed peers seen at least n days
// continuously and intermittently (Figure 7's two curves).
func (ds *Dataset) ChurnAt(n int) ChurnPoint { return ds.ChurnPoints(n)[0] }

// ChurnPoints returns ChurnAt at each of the horizons, in order, from one
// pass over the tracks: it counts the tracks by longestRun and by Span,
// and answers every horizon from the counts' suffix sums.
func (ds *Dataset) ChurnPoints(horizons ...int) []ChurnPoint {
	out := make([]ChurnPoint, len(horizons))
	for i, n := range horizons {
		out[i].Days = n
	}
	if ds.observed == 0 {
		return out
	}
	// runs[v] and spans[v] count the tracks whose longestRun and Span are
	// v. An observed track's Span is at least 1: the clamp only guards the
	// index and moves no count.
	var runs, spans []int
	bump := func(h []int, v int) []int {
		if v >= len(h) {
			h = append(h, make([]int, v+1-len(h))...)
		}
		h[v]++
		return h
	}
	ds.eachTrack(func(i int, t *PeerTrack) {
		runs = bump(runs, ds.longestRun(i))
		spans = bump(spans, max(t.Span(), 0))
	})
	// atLeast turns a count by value into the count of values >= n.
	atLeast := func(h []int) []int {
		for v := len(h) - 2; v >= 0; v-- {
			h[v] += h[v+1]
		}
		return h
	}
	runs, spans = atLeast(runs), atLeast(spans)
	count := func(ge []int, n int) int {
		switch {
		case n <= 0:
			return ge[0]
		case n >= len(ge):
			return 0
		}
		return ge[n]
	}
	total := float64(ds.observed)
	for i, n := range horizons {
		out[i].Continuous = 100 * float64(count(runs, n)) / total
		out[i].Intermittent = 100 * float64(count(spans, n)) / total
	}
	return out
}

// churnHorizons are Figure 7's: 10..80 days plus the paper's 7- and
// 30-day anchor points.
var churnHorizons = []int{7, 10, 20, 30, 40, 50, 60, 70, 80}

// ChurnFigure reproduces Figure 7 over horizons of 10..80 days (plus the
// paper's 7- and 30-day anchor points).
func (ds *Dataset) ChurnFigure() *stats.Figure {
	fig, _ := ds.ChurnFigureWith()
	return fig
}

// ChurnFigureWith is ChurnFigure plus the ChurnPoints at the extra
// horizons, all from one ChurnPoints pass over the tracks.
func (ds *Dataset) ChurnFigureWith(extra ...int) (*stats.Figure, []ChurnPoint) {
	pts := ds.ChurnPoints(append(slices.Clone(churnHorizons), extra...)...)
	fig := &stats.Figure{
		Title:  "Figure 7: Percentage of peers seen continuously or intermittently for n days",
		XLabel: "days",
		YLabel: "percentage",
	}
	cont := fig.AddSeries("continuously")
	inter := fig.AddSeries("intermittently")
	for _, pt := range pts[:len(churnHorizons)] {
		if pt.Days > ds.EndDay-ds.StartDay {
			break
		}
		cont.Append(float64(pt.Days), pt.Continuous)
		inter.Append(float64(pt.Days), pt.Intermittent)
	}
	return fig, pts[len(churnHorizons):]
}

// IPChurnHistogram reproduces Figure 8: how many IP addresses each
// known-IP peer was associated with. Buckets above max collapse into the
// final bucket, mirroring the paper's 16+ axis.
func (ds *Dataset) IPChurnHistogram(maxBucket int) *stats.IntHistogram {
	if maxBucket <= 0 {
		maxBucket = 16
	}
	h := stats.NewIntHistogram()
	sets := peerSets{ds: ds}
	ds.eachTrack(func(i int, _ *PeerTrack) {
		if n := sets.ipCount(i); n > 0 { // n == 0: an unknown-IP peer
			h.Observe(min(n, maxBucket))
		}
	})
	return h
}

// IPCountShares returns Figure 8's headline shares: the percentage of
// known-IP peers with exactly one address, with two or more, and with more
// than a hundred.
func (ds *Dataset) IPCountShares() (single, multi, over100 float64) {
	total := 0
	s, m, o := 0, 0, 0
	sets := peerSets{ds: ds}
	ds.eachTrack(func(i int, _ *PeerTrack) {
		n := sets.ipCount(i)
		if n == 0 {
			return
		}
		total++
		switch {
		case n == 1:
			s++
		default:
			m++
		}
		if n > 100 {
			o++
		}
	})
	if total == 0 {
		return 0, 0, 0
	}
	f := 100 / float64(total)
	return float64(s) * f, float64(m) * f, float64(o) * f
}

// CapacityFigure reproduces Figure 9: the mean daily number of peers per
// published bandwidth letter.
func (ds *Dataset) CapacityFigure() *stats.Figure {
	fig := &stats.Figure{
		Title:  "Figure 9: Capacity distribution of I2P peers",
		XLabel: "class",
		YLabel: "mean daily peers",
	}
	s := fig.AddSeries("observed peers")
	days := float64(len(ds.Days))
	for _, cl := range netdb.BandwidthClasses {
		sum := 0
		for _, d := range ds.Days {
			sum += d.ClassCounts[cl]
		}
		s.Append(float64(cl.Index()), float64(sum)/days)
	}
	return fig
}

// MeanDailyClassCount returns the average daily count for one class.
func (ds *Dataset) MeanDailyClassCount(cl netdb.BandwidthClass) float64 {
	if len(ds.Days) == 0 {
		return 0
	}
	sum := 0
	for _, d := range ds.Days {
		sum += d.ClassCounts[cl]
	}
	return float64(sum) / float64(len(ds.Days))
}

// Table1 reproduces the paper's Table 1: for each bandwidth class, the
// percentage of routers in the floodfill / reachable / unreachable / total
// groups publishing that class letter. Column sums exceed 100% for the two
// reasons the paper gives (flag fluctuation and legacy multi-letter
// publication).
func (ds *Dataset) Table1() map[netdb.BandwidthClass]map[string]float64 {
	// Group totals: peer-day counts per group.
	var ffTotal, rTotal, uTotal, allTotal int
	for _, d := range ds.Days {
		ffTotal += d.Floodfill
		rTotal += d.Reachable
		uTotal += d.Unreachable
		allTotal += d.Peers
	}
	out := make(map[netdb.BandwidthClass]map[string]float64, len(netdb.BandwidthClasses))
	pct := func(num, den int) float64 {
		if den == 0 {
			return 0
		}
		return 100 * float64(num) / float64(den)
	}
	for _, cl := range netdb.BandwidthClasses {
		var ff, r, u, all int
		for _, d := range ds.Days {
			ff += d.GroupClass["floodfill"][cl]
			r += d.GroupClass["reachable"][cl]
			u += d.GroupClass["unreachable"][cl]
			all += d.ClassCounts[cl]
		}
		out[cl] = map[string]float64{
			"floodfill":   pct(ff, ffTotal),
			"reachable":   pct(r, rTotal),
			"unreachable": pct(u, uTotal),
			"total":       pct(all, allTotal),
		}
	}
	return out
}

// RenderTable1 renders Table1 in the paper's layout.
func (ds *Dataset) RenderTable1() string {
	data := ds.Table1()
	rows := [][]string{{"Bandwidth", "Floodfill", "Reachable", "Unreachable", "Total"}}
	labels := map[netdb.BandwidthClass]string{
		netdb.ClassK: "< 12 KB/s    K",
		netdb.ClassL: "12-48 KB/s   L",
		netdb.ClassM: "48-64 KB/s   M",
		netdb.ClassN: "64-128 KB/s  N",
		netdb.ClassO: "128-256 KB/s O",
		netdb.ClassP: "256-2000 KB/s P",
		netdb.ClassX: "> 2000 KB/s  X",
	}
	for _, cl := range netdb.BandwidthClasses {
		d := data[cl]
		rows = append(rows, []string{
			labels[cl],
			fmt.Sprintf("%.2f", d["floodfill"]),
			fmt.Sprintf("%.2f", d["reachable"]),
			fmt.Sprintf("%.2f", d["unreachable"]),
			fmt.Sprintf("%.2f", d["total"]),
		})
	}
	return stats.RenderTable(rows)
}

// FloodfillEstimate is the Section 5.3.1 population estimate.
type FloodfillEstimate struct {
	// MeanDailyFloodfills is the average daily f-flagged peer count.
	MeanDailyFloodfills float64
	// FloodfillShare is that count over the mean daily peer count.
	FloodfillShare float64
	// QualifiedShare is the fraction of floodfills meeting the automatic
	// opt-in bandwidth floor (class N or better; the paper: 71%).
	QualifiedShare float64
	// QualifiedDaily = MeanDailyFloodfills * QualifiedShare (the paper:
	// ~1,917).
	QualifiedDaily float64
	// PopulationEstimate = QualifiedDaily / AutomaticFloodfillShare (the
	// paper: ~31,950).
	PopulationEstimate float64
}

// AutomaticFloodfillShare is the I2P project's own estimate that ~6% of
// the network runs floodfill automatically (Section 5.3.1).
const AutomaticFloodfillShare = 0.06

// EstimateFloodfillPopulation computes the Section 5.3.1 estimate from the
// dataset: remove manually enabled, under-provisioned floodfills, then
// scale the qualified count by the 6% automatic-floodfill share.
func (ds *Dataset) EstimateFloodfillPopulation() FloodfillEstimate {
	// Count qualified vs unqualified floodfill peer-days.
	var qualified, unqualified int
	for _, d := range ds.Days {
		for cl, n := range d.GroupClass["floodfill"] {
			// Count primary letters only: skip the legacy O double-count
			// by attributing O only when it is the primary class; this
			// mirrors the paper's set-subtraction of K/L/M overlap.
			if cl.AtLeast(netdb.FloodfillMinClass) {
				qualified += n
			} else {
				unqualified += n
			}
		}
	}
	days := float64(len(ds.Days))
	if days == 0 {
		return FloodfillEstimate{}
	}
	var ffTotal int
	for _, d := range ds.Days {
		ffTotal += d.Floodfill
	}
	meanFF := float64(ffTotal) / days
	share := 0.0
	if qualified+unqualified > 0 {
		share = float64(qualified) / float64(qualified+unqualified)
	}
	qualifiedDaily := meanFF * share
	return FloodfillEstimate{
		MeanDailyFloodfills: meanFF,
		FloodfillShare:      meanFF / ds.MeanDailyPeers(),
		QualifiedShare:      share,
		QualifiedDaily:      qualifiedDaily,
		PopulationEstimate:  qualifiedDaily / AutomaticFloodfillShare,
	}
}

// CountryCounter reproduces Figure 10's counting rule: a peer associated
// with several addresses is counted once per distinct country.
func (ds *Dataset) CountryCounter() *stats.Counter {
	c := stats.NewCounter()
	for cc, n := range ds.countryTally() {
		c.Add(geo.UnpackCountry(cc), n)
	}
	return c
}

// countryTally counts the observed peers by packed country (geo.PackCountry),
// once per distinct country each resolved to: the keys are named only
// once per country, not once per peer.
func (ds *Dataset) countryTally() map[uint16]int {
	n := make(map[uint16]int)
	sets := peerSets{ds: ds}
	ds.eachTrack(func(i int, _ *PeerTrack) {
		for _, cc := range sets.countriesOf(i) {
			n[cc]++
		}
	})
	return n
}

// ASCounter reproduces Figure 11: a peer is counted once per distinct
// autonomous system.
func (ds *Dataset) ASCounter() *stats.Counter {
	n := make(map[uint32]int)
	sets := peerSets{ds: ds}
	ds.eachTrack(func(i int, _ *PeerTrack) {
		for _, asn := range sets.asnsOf(i) {
			n[asn]++
		}
	})
	c := stats.NewCounter()
	for asn, k := range n {
		c.Add(strconv.FormatUint(uint64(asn), 10), k)
	}
	return c
}

// CensoredSummary summarizes the peers observed in countries with poor
// press-freedom scores (Section 5.3.2: ~30 countries, ~6K peers, led by
// China, then Singapore and Turkey).
type CensoredSummary struct {
	Countries  int
	TotalPeers int
	Top        []stats.KV
}

// CensoredPeers computes the censored-country summary using db's
// press-freedom table.
func (ds *Dataset) CensoredPeers(db *geo.DB) CensoredSummary {
	counts := stats.NewCounter()
	for cc, n := range ds.countryTally() {
		if code := geo.UnpackCountry(cc); db.Censored(code) {
			counts.Add(code, n)
		}
	}
	return CensoredSummary{
		Countries:  counts.Len(),
		TotalPeers: counts.Total(),
		Top:        counts.Top(5),
	}
}

// ASChurnHistogram reproduces Figure 12: the number of distinct autonomous
// systems each known-IP peer was observed in, capped at maxBucket.
func (ds *Dataset) ASChurnHistogram(maxBucket int) *stats.IntHistogram {
	if maxBucket <= 0 {
		maxBucket = 10
	}
	h := stats.NewIntHistogram()
	sets := peerSets{ds: ds}
	ds.eachTrack(func(i int, _ *PeerTrack) {
		if n := len(sets.asnsOf(i)); n > 0 {
			h.Observe(min(n, maxBucket))
		}
	})
	return h
}

// ASCountShares returns Figure 12's headline shares: percentage of
// known-IP peers in exactly one AS and in more than ten.
func (ds *Dataset) ASCountShares() (single, over10 float64, maxASes int) {
	total, s, o := 0, 0, 0
	sets := peerSets{ds: ds}
	ds.eachTrack(func(i int, _ *PeerTrack) {
		n := len(sets.asnsOf(i))
		if n == 0 {
			return
		}
		total++
		if n == 1 {
			s++
		}
		if n > 10 {
			o++
		}
		if n > maxASes {
			maxASes = n
		}
	})
	if total == 0 {
		return 0, 0, 0
	}
	return 100 * float64(s) / float64(total), 100 * float64(o) / float64(total), maxASes
}

// TopGeo renders a top-N table with cumulative percentages in the layout
// of Figures 10 and 11.
func TopGeo(c *stats.Counter, n int, label string) string {
	top := c.Top(n)
	shares := c.CumulativeShare(top)
	rows := [][]string{{label, "peers", "cum %"}}
	for i, kv := range top {
		rows = append(rows, []string{kv.Key, fmt.Sprint(kv.Count), fmt.Sprintf("%.1f", shares[i])})
	}
	return stats.RenderTable(rows)
}
