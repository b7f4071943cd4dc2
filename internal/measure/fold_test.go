package measure

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/netdb"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// foldTestCampaign is a small campaign with enough address churn that
// the two fold orders intern addresses differently.
func foldTestCampaign(t testing.TB) *Campaign {
	t.Helper()
	n, err := sim.New(sim.Config{Seed: 11, Days: 20, TargetDailyPeers: 600})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCampaign(n, CampaignConfig{Observers: DefaultObserverFleet(6), StartDay: 0, EndDay: 20, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// trackOutput is what an analysis can read of one track: its exported
// fields and accessors, and the order-free sets behind them — everything
// but the intern IDs themselves.
type trackOutput struct {
	Track        PeerTrack // ips cleared
	IPCount      int
	ASNs         []uint32
	CountryCodes []string
}

// datasetOutputs is every exported output of a Dataset: the day rows,
// the summary counts, each track, and the analyses behind Figures 5–12
// and Table 1 as the benchmark calls them.
func datasetOutputs(ds *Dataset, network *sim.Network) map[string]any {
	tracks := make(map[netdb.Hash]trackOutput, len(ds.Peers))
	for h, t := range ds.Peers {
		out := trackOutput{Track: *t, IPCount: t.IPCount(), ASNs: t.ASNs(), CountryCodes: t.CountryCodes()}
		out.Track.ips = nil
		tracks[h] = out
	}
	ipSingle, ipMulti, ipOver100 := ds.IPCountShares()
	asSingle, asOver10, asMax := ds.ASCountShares()
	return map[string]any{
		"Days":                        ds.Days,
		"TotalPeers":                  ds.TotalPeers(),
		"Unresolved":                  ds.Unresolved,
		"tracks":                      tracks,
		"PopulationTimeline":          ds.PopulationTimeline(),
		"UnknownIPTimeline":           ds.UnknownIPTimeline(),
		"ChurnFigure":                 ds.ChurnFigure(),
		"SurvivalCurve":               ds.SurvivalCurve(),
		"IPChurnHistogram":            ds.IPChurnHistogram(16),
		"IPCountShares":               []float64{ipSingle, ipMulti, ipOver100},
		"CapacityFigure":              ds.CapacityFigure(),
		"Table1":                      ds.Table1(),
		"EstimateFloodfillPopulation": ds.EstimateFloodfillPopulation(),
		"CountryCounter":              ds.CountryCounter(),
		"CensoredPeers":               ds.CensoredPeers(network.GeoDB()),
		"ASCounter":                   ds.ASCounter(),
		"ASChurnHistogram":            ds.ASChurnHistogram(10),
		"ASCountShares":               []float64{asSingle, asOver10, float64(asMax)},
	}
}

// TestFoldOrderMovesNoAnalysisByte licenses the peer-index fold order:
// the retained units folded in the old identity order through
// referenceAccumulateDay, and the campaign's own peer-order fold, number
// their addresses differently and agree on every exported output.
func TestFoldOrderMovesNoAnalysisByte(t *testing.T) {
	c := foldTestCampaign(t)
	units := retainedUnits(c)
	for _, recs := range units {
		slices.SortFunc(recs, func(a, b *netdb.RouterInfo) int {
			return bytes.Compare(a.Identity[:], b.Identity[:])
		})
	}
	byIdentity := foldUnits(c, units)
	byPeer, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(byIdentity, byPeer) {
		t.Fatal("the two fold orders interned every address alike; the fixture does not tell them apart")
	}
	want, got := datasetOutputs(byIdentity, c.net), datasetOutputs(byPeer, c.net)
	for name := range want {
		if !reflect.DeepEqual(got[name], want[name]) {
			t.Errorf("%s differs between the identity-order and the peer-order fold", name)
		}
	}
}

// TestFoldStateColdOrWarm: the fold state is a cache of the Dataset. A
// fresh folder for every day, one warm folder carried across days, and
// the Workers = 1 campaign all fold the same days into the same Dataset.
func TestFoldStateColdOrWarm(t *testing.T) {
	c := foldTestCampaign(t)
	serial, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	cold := NewDataset(c.cfg.StartDay, c.cfg.EndDay)
	warm := NewDataset(c.cfg.StartDay, c.cfg.EndDay)
	warmFolder := newFolder(warm, c.net)
	sc := c.newDayCapture()
	for day := c.cfg.StartDay; day < c.cfg.EndDay; day++ {
		recs := c.captureDay(day, sc, nil).recs
		newFolder(cold, c.net).fold(day, recs)
		warmFolder.fold(day, recs)
	}
	if !reflect.DeepEqual(cold, serial) {
		t.Error("a fresh fold state per day folds a different Dataset than the campaign")
	}
	if !reflect.DeepEqual(warm, serial) {
		t.Error("one fold state across days folds a different Dataset than the campaign")
	}
}
