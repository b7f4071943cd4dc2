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
// two fold orders meet the addresses in different orders.
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

// TestFoldOrderMovesNoAnalysisByte licenses the peer-index fold order:
// the retained units folded in the old identity order through
// referenceAccumulateDay, and the campaign's own peer-order fold, build
// the same Dataset. The address IDs are the network's (sim.AddrTable),
// not assigned in fold order, so not even an ID moves.
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
	if !reflect.DeepEqual(byIdentity, byPeer) {
		t.Fatal("the identity-order and the peer-order fold build different Datasets")
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
