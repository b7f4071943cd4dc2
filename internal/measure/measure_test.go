package measure

import (
	"path/filepath"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/netdb"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// testDataset runs a small campaign once and shares it across tests.
var (
	sharedNet     *sim.Network
	sharedDataset *Dataset
)

func dataset(t testing.TB) (*sim.Network, *Dataset) {
	t.Helper()
	if sharedDataset != nil {
		return sharedNet, sharedDataset
	}
	n, err := sim.New(sim.Config{Seed: 5, Days: 40, TargetDailyPeers: 2000})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCampaign(n, CampaignConfig{
		Observers: DefaultObserverFleet(8),
		StartDay:  0,
		EndDay:    40,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	sharedNet, sharedDataset = n, ds
	return n, ds
}

func TestNewCampaignValidation(t *testing.T) {
	n, _ := dataset(t)
	if _, err := NewCampaign(n, CampaignConfig{StartDay: 0, EndDay: 5}); err == nil {
		t.Fatal("campaign without observers accepted")
	}
	if _, err := NewCampaign(n, CampaignConfig{Observers: DefaultObserverFleet(1), StartDay: 5, EndDay: 5}); err == nil {
		t.Fatal("empty day range accepted")
	}
	if _, err := NewCampaign(n, CampaignConfig{Observers: DefaultObserverFleet(1), StartDay: 0, EndDay: 10000}); err == nil {
		t.Fatal("out-of-range end day accepted")
	}
}

func TestDefaultObserverFleetAlternatesModes(t *testing.T) {
	fleet := DefaultObserverFleet(6)
	if len(fleet) != 6 {
		t.Fatalf("fleet size %d", len(fleet))
	}
	ff := 0
	for _, o := range fleet {
		if o.Floodfill {
			ff++
		}
	}
	if ff != 3 {
		t.Fatalf("floodfill count = %d, want half", ff)
	}
}

func TestCampaignBasicCounts(t *testing.T) {
	n, ds := dataset(t)
	if len(ds.Days) != 40 {
		t.Fatalf("days = %d", len(ds.Days))
	}
	if ds.TotalPeers() == 0 {
		t.Fatal("no peers observed")
	}
	mean := ds.MeanDailyPeers()
	target := float64(n.Config().TargetDailyPeers)
	// Eight 8MB/s observers cover most of the daily network.
	if mean < 0.75*target || mean > 1.05*target {
		t.Fatalf("mean daily peers = %.0f, want near %.0f", mean, target)
	}
	// Distinct peers over 40 days far exceed the daily count.
	if float64(ds.TotalPeers()) < 1.5*mean {
		t.Fatalf("total %d vs daily %.0f: churn missing", ds.TotalPeers(), mean)
	}
}

// TestFigure5Shape: unique IPs below unique peers; IPv6 well below IPv4.
func TestFigure5Shape(t *testing.T) {
	_, ds := dataset(t)
	fig := ds.PopulationTimeline()
	routers := fig.FindSeries("routers")
	all := fig.FindSeries("all IP")
	v4 := fig.FindSeries("IPv4")
	v6 := fig.FindSeries("IPv6")
	if routers == nil || all == nil || v4 == nil || v6 == nil {
		t.Fatal("missing series")
	}
	for i := range routers.X {
		if all.Y[i] >= routers.Y[i] {
			t.Fatalf("day %d: IPs (%v) not below peers (%v) — Figure 5 inversion", i, all.Y[i], routers.Y[i])
		}
		if v6.Y[i] >= v4.Y[i] {
			t.Fatalf("day %d: IPv6 (%v) not below IPv4 (%v)", i, v6.Y[i], v4.Y[i])
		}
		if all.Y[i] != v4.Y[i]+v6.Y[i] {
			t.Fatalf("day %d: all != v4+v6", i)
		}
	}
	if fig.Render() == "" {
		t.Fatal("empty render")
	}
}

// TestFigure6Shape: firewalled ~3-4x hidden; overlap positive and smaller
// than either; unknown-IP ≈ firewalled + hidden − overlap.
func TestFigure6Shape(t *testing.T) {
	_, ds := dataset(t)
	for _, d := range ds.Days {
		if d.Firewalled <= d.Hidden {
			t.Fatalf("day %d: firewalled (%d) must exceed hidden (%d)", d.Day, d.Firewalled, d.Hidden)
		}
		if d.Overlap <= 0 || d.Overlap >= d.Hidden {
			t.Fatalf("day %d: overlap (%d) out of range vs hidden (%d)", d.Day, d.Overlap, d.Hidden)
		}
		if got := d.Firewalled + d.Hidden - d.Overlap; got != d.UnknownIP {
			t.Fatalf("day %d: identity broken: fw+hid-ov=%d unknown=%d", d.Day, got, d.UnknownIP)
		}
		frac := float64(d.UnknownIP) / float64(d.Peers)
		if frac < 0.35 || frac > 0.65 {
			t.Fatalf("day %d: unknown-IP share = %.2f, want ~0.5", d.Day, frac)
		}
	}
}

// TestFigure7Churn checks the anchor points on the observed dataset.
func TestFigure7Churn(t *testing.T) {
	_, ds := dataset(t)
	p7 := ds.ChurnAt(7)
	p30 := ds.ChurnAt(30)
	if p7.Continuous >= p7.Intermittent {
		t.Fatal("continuous must be below intermittent")
	}
	if p30.Continuous >= p7.Continuous || p30.Intermittent >= p7.Intermittent {
		t.Fatal("longer horizons must have smaller shares")
	}
	// The 40-day observation window squeezes the 30-day numbers; keep
	// generous bands around the paper's 56/74 and 20/31.
	if p7.Continuous < 35 || p7.Continuous > 70 {
		t.Fatalf("continuous >=7d = %.1f%%, want ~56%%", p7.Continuous)
	}
	if p7.Intermittent < 55 || p7.Intermittent > 85 {
		t.Fatalf("intermittent >=7d = %.1f%%, want ~74%%", p7.Intermittent)
	}
	fig := ds.ChurnFigure()
	if len(fig.FindSeries("continuously").X) == 0 {
		t.Fatal("empty churn figure")
	}
}

// TestFigure8IPChurn: ~45% single-IP among known-IP peers.
func TestFigure8IPChurn(t *testing.T) {
	_, ds := dataset(t)
	single, multi, over100 := ds.IPCountShares()
	if single+multi < 99.9 || single+multi > 100.1 {
		t.Fatalf("shares do not sum to 100: %v + %v", single, multi)
	}
	if single < 30 || single > 75 {
		t.Fatalf("single-IP share = %.1f%%, want ~45%%", single)
	}
	if over100 > 2 {
		t.Fatalf(">100-IP share = %.2f%%, want well under 2%%", over100)
	}
	h := ds.IPChurnHistogram(16)
	if h.Total() == 0 {
		t.Fatal("empty IP histogram")
	}
	if h.Count(1) < h.Count(5) {
		t.Fatal("1-IP bucket must dominate 5-IP bucket")
	}
}

// TestFigure9AndTable1: class ordering and group structure.
func TestFigure9AndTable1(t *testing.T) {
	_, ds := dataset(t)
	l := ds.MeanDailyClassCount(netdb.ClassL)
	n := ds.MeanDailyClassCount(netdb.ClassN)
	p := ds.MeanDailyClassCount(netdb.ClassP)
	o := ds.MeanDailyClassCount(netdb.ClassO)
	if !(l > n && n > p) {
		t.Fatalf("class ordering broken: L=%.0f N=%.0f P=%.0f", l, n, p)
	}
	// O sits between P and M because of legacy double-publication.
	if o <= 0 {
		t.Fatal("no O-flag observations")
	}
	table := ds.Table1()
	// Floodfill column: N dominates, L second (the paper's headline).
	ff := func(cl netdb.BandwidthClass) float64 { return table[cl]["floodfill"] }
	if !(ff(netdb.ClassN) > ff(netdb.ClassL)) {
		t.Fatalf("floodfill N%% (%.1f) must exceed L%% (%.1f)", ff(netdb.ClassN), ff(netdb.ClassL))
	}
	// Reachable and unreachable columns: L dominates.
	for _, grp := range []string{"reachable", "unreachable", "total"} {
		if table[netdb.ClassL][grp] <= table[netdb.ClassN][grp] {
			t.Fatalf("%s column: L%% must dominate N%%", grp)
		}
	}
	// Column sums exceed 100% (multi-letter publication).
	sum := 0.0
	for _, cl := range netdb.BandwidthClasses {
		sum += table[cl]["total"]
	}
	if sum <= 100 {
		t.Fatalf("total column sums to %.1f%%, want > 100%%", sum)
	}
	if ds.RenderTable1() == "" {
		t.Fatal("empty table render")
	}
}

// TestFloodfillEstimate: the Section 5.3.1 pipeline — share ~8.8%,
// qualified ~71%, population estimate ≈ network size.
func TestFloodfillEstimate(t *testing.T) {
	n, ds := dataset(t)
	est := ds.EstimateFloodfillPopulation()
	if est.FloodfillShare < 0.05 || est.FloodfillShare > 0.13 {
		t.Fatalf("floodfill share = %.3f, want ~0.088", est.FloodfillShare)
	}
	if est.QualifiedShare < 0.55 || est.QualifiedShare > 0.85 {
		t.Fatalf("qualified share = %.2f, want ~0.71", est.QualifiedShare)
	}
	target := float64(n.Config().TargetDailyPeers)
	if est.PopulationEstimate < 0.5*target || est.PopulationEstimate > 1.8*target {
		t.Fatalf("population estimate = %.0f, want near %.0f", est.PopulationEstimate, target)
	}
}

// TestFigure10And11Geo: US and Comcast lead; censored countries present.
func TestFigure10And11Geo(t *testing.T) {
	n, ds := dataset(t)
	countries := ds.CountryCounter()
	top := countries.Top(20)
	if top[0].Key != "US" {
		t.Fatalf("top country = %s, want US", top[0].Key)
	}
	shares := countries.CumulativeShare(top)
	if got := shares[len(shares)-1]; got < 55 {
		t.Fatalf("top-20 cumulative = %.1f%%, want > 55%% (paper: >60%%)", got)
	}
	// Big-6 over 40%.
	big6 := 0
	for _, cc := range []string{"US", "RU", "GB", "FR", "CA", "AU"} {
		big6 += countries.Get(cc)
	}
	if frac := float64(big6) / float64(countries.Total()); frac < 0.38 {
		t.Fatalf("big-6 share = %.2f, want > 0.40", frac)
	}

	ases := ds.ASCounter()
	if ases.Top(1)[0].Key != "7922" {
		t.Fatalf("top AS = %s, want 7922 (Comcast)", ases.Top(1)[0].Key)
	}

	cens := ds.CensoredPeers(n.GeoDB())
	if cens.Countries < 15 || cens.Countries > 32 {
		t.Fatalf("censored countries with peers = %d, want ~30", cens.Countries)
	}
	if cens.Top[0].Key != "CN" {
		t.Fatalf("leading censored country = %s, want CN", cens.Top[0].Key)
	}
	frac := float64(cens.TotalPeers) / float64(ds.TotalPeers())
	if frac < 0.02 || frac > 0.12 {
		t.Fatalf("censored share = %.3f, want ~0.05", frac)
	}
	if TopGeo(countries, 20, "country") == "" || TopGeo(ases, 20, "ASN") == "" {
		t.Fatal("empty geo tables")
	}
}

// TestFigure12ASChurn: >75% single-AS, a few percent over 10.
func TestFigure12ASChurn(t *testing.T) {
	_, ds := dataset(t)
	single, over10, maxASes := ds.ASCountShares()
	if single < 70 {
		t.Fatalf("single-AS share = %.1f%%, want > 80%%", single)
	}
	if over10 <= 0 || over10 > 15 {
		t.Fatalf(">10-AS share = %.1f%%, want ~8%%", over10)
	}
	if maxASes > 39 {
		t.Fatalf("max AS count %d exceeds the paper's 39", maxASes)
	}
	h := ds.ASChurnHistogram(10)
	if h.Share(1) < 70 {
		t.Fatalf("histogram single-AS share = %.1f%%", h.Share(1))
	}
}

func TestSnapshotDirWritesNetDbFiles(t *testing.T) {
	n, err := sim.New(sim.Config{Seed: 9, Days: 3, TargetDailyPeers: 300})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	c, err := NewCampaign(n, CampaignConfig{
		Observers:   DefaultObserverFleet(2),
		StartDay:    0,
		EndDay:      2,
		SnapshotDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	// Each day's netDb directory must reload cleanly.
	for day := 0; day < 2; day++ {
		ndir := filepath.Join(dir, "day-00"+string(rune('0'+day)), "netDb")
		store := netdb.NewStore()
		loaded, err := store.LoadDir(ndir)
		if err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
		if loaded == 0 {
			t.Fatalf("day %d: no records persisted", day)
		}
	}
}

func TestPeerTrackHelpers(t *testing.T) {
	ds := NewDataset(0, 10)
	ds.sizeTracks(4)
	tr := ds.track(1, 2)
	if tr.FirstDay != 2 || tr.LastDay != 2 {
		t.Fatalf("creation must set the window: first=%d last=%d", tr.FirstDay, tr.LastDay)
	}
	ds.track(1, 3)
	ds.track(1, 6)
	ds.track(1, 8)
	if tr.Span() != 7 {
		t.Fatalf("span = %d, want 7", tr.Span())
	}
	if ds.longestRun(1) != 2 {
		t.Fatalf("run = %d, want 2", ds.longestRun(1))
	}
	if ds.daysObserved(1) != 4 {
		t.Fatalf("days = %d, want 4", ds.daysObserved(1))
	}
	// The peers beside it share the seen slab but not its words.
	if ds.daysObserved(0) != 0 || ds.daysObserved(2) != 0 {
		t.Fatal("a track's seen days leaked into its neighbours' words")
	}
	// The same index returns the same track, and the peers beside it
	// keep the zero track.
	if ds.track(1, 8) != tr {
		t.Fatal("track not memoized")
	}
	if ds.TotalPeers() != 1 {
		t.Fatalf("one peer observed, TotalPeers = %d", ds.TotalPeers())
	}
	for _, i := range []int{0, 2, 3} {
		if ds.tracks[i].observed() {
			t.Fatalf("peer %d observed but never tracked", i)
		}
	}
	// Empty dataset churn does not divide by zero.
	empty := NewDataset(0, 5)
	if pt := empty.ChurnAt(3); pt.Continuous != 0 || pt.Intermittent != 0 {
		t.Fatal("empty churn should be zero")
	}
	if empty.MeanDailyPeers() != 0 {
		// 5 days exist but no peers
		t.Fatal("mean daily peers should be 0")
	}
}

func TestSurvivalCurveProperties(t *testing.T) {
	_, ds := dataset(t)
	curve := ds.SurvivalCurve()
	if len(curve) == 0 {
		t.Fatal("empty survival curve")
	}
	if curve[0].Probability != 1 {
		t.Fatal("survival must start at 1")
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].Probability > curve[i-1].Probability {
			t.Fatal("survival function must be non-increasing")
		}
		if curve[i].Days < curve[i-1].Days {
			t.Fatal("curve days must be sorted")
		}
		if curve[i].Probability < 0 || curve[i].Probability > 1 {
			t.Fatal("probability out of range")
		}
	}
}

// TestSurvivalCorrectsCensoring: the Kaplan-Meier estimate must sit at or
// above the naive intermittent share at long horizons (censoring only
// removes mass from the naive estimate), and agree closely at horizons
// far from the window edge.
func TestSurvivalCorrectsCensoring(t *testing.T) {
	_, ds := dataset(t)
	for _, n := range []int{7, 20, 30} {
		naive := ds.ChurnAt(n).Intermittent
		km := ds.SurvivalAt(n)[0]
		if km < naive-2 { // small slack for step interpolation
			t.Fatalf("KM at %dd (%.1f%%) fell below naive (%.1f%%)", n, km, naive)
		}
	}
	// The 30-day corrected estimate should move toward the paper's 31%
	// from the truncation-depressed naive value.
	naive30 := ds.ChurnAt(30).Intermittent
	km30 := ds.SurvivalAt(30)[0]
	if km30 <= naive30 {
		t.Fatalf("KM at 30d (%.1f%%) should exceed naive (%.1f%%) on a 40-day window", km30, naive30)
	}
}

func TestSurvivalEmptyDataset(t *testing.T) {
	empty := NewDataset(0, 5)
	if empty.SurvivalCurve() != nil {
		t.Fatal("empty dataset should yield nil curve")
	}
	if got := empty.SurvivalAt(7); len(got) != 1 || got[0] != 0 {
		t.Fatal("empty dataset survival should be 0")
	}
}
