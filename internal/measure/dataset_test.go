package measure

import (
	"net/netip"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/netdb"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// TestUnresolvedCountsDistinctAddresses is the regression test for the
// Unresolved accounting bug: one peer carrying one unresolvable address
// for ten days must count as ONE unresolved address, not ten. The
// pre-fix code incremented per (record, address, day) occurrence, so a
// single long-lived bad address inflated the summary once per day.
func TestUnresolvedCountsDistinctAddresses(t *testing.T) {
	n, err := sim.New(sim.Config{Seed: 3, Days: 1, TargetDailyPeers: 50})
	if err != nil {
		t.Fatal(err)
	}
	db := n.GeoDB()
	// The synthetic geo database resolves IPv6 only inside 2a10::/16, so
	// a documentation-range address is unresolvable by construction.
	bogus := netip.MustParseAddr("2001:db8::1")
	if _, ok := db.Lookup(bogus); ok {
		t.Fatal("test address unexpectedly resolves")
	}
	// The simulator never publishes an unresolvable address, so the test
	// feeds the fold's per-address step directly.
	fold := func(ds *Dataset, day int, id netdb.Hash, addr netip.Addr) {
		ds.countAddr(ds.day(day), ds.addAddr(db, ds.track(id, day), addr))
	}
	id := netdb.HashFromUint64(1)

	ds := NewDataset(0, 10)
	for day := 0; day < 10; day++ {
		fold(ds, day, id, bogus)
	}
	if ds.Unresolved != 1 {
		t.Fatalf("Unresolved = %d, want 1 (one distinct unresolvable address over 10 days)", ds.Unresolved)
	}
	tr := ds.Peers[id]
	if tr == nil || tr.IPCount() != 1 || tr.DaysObserved() != 10 {
		t.Fatalf("track mis-accumulated: %+v", tr)
	}
	// Unresolvable addresses still count toward the per-day IP totals
	// (they were observed, just not located), exactly as before the fix.
	for _, d := range ds.Days {
		if d.IPAll != 1 || d.IPv6 != 1 {
			t.Fatalf("day %d: IPAll=%d IPv6=%d, want 1/1", d.Day, d.IPAll, d.IPv6)
		}
	}
	// A second distinct bad address on a later day adds exactly one more.
	ds2 := NewDataset(0, 10)
	for day := 0; day < 10; day++ {
		fold(ds2, day, id, bogus)
		fold(ds2, day, netdb.HashFromUint64(2), netip.MustParseAddr("2001:db8::2"))
	}
	if ds2.Unresolved != 2 {
		t.Fatalf("Unresolved = %d, want 2", ds2.Unresolved)
	}
}

// TestTracksAlwaysObserved proves the invariant that let SurvivalCurve
// (and every other ds.Peers iteration) drop its un-observed-track guard:
// Dataset.track requires the observing day, so every track in a
// campaign-built dataset has a coherent, observed [FirstDay, LastDay]
// window.
func TestTracksAlwaysObserved(t *testing.T) {
	_, ds := dataset(t)
	for h, tr := range ds.Peers {
		if tr.FirstDay < ds.StartDay || tr.LastDay >= ds.EndDay || tr.FirstDay > tr.LastDay {
			t.Fatalf("%s: incoherent window [%d, %d]", h, tr.FirstDay, tr.LastDay)
		}
		if tr.DaysObserved() == 0 {
			t.Fatalf("%s: track exists but was never observed", h)
		}
		for _, day := range []int{tr.FirstDay, tr.LastDay} {
			idx := day - ds.StartDay
			if tr.seen[idx>>6]&(1<<(idx&63)) == 0 {
				t.Fatalf("%s: day %d bounds the window but is not marked seen", h, day)
			}
		}
	}
}

// TestPeerTrackCompactSets checks the sorted-set insertion helpers the
// compact representation leans on.
func TestPeerTrackCompactSets(t *testing.T) {
	var s []uint32
	for _, v := range []uint32{5, 1, 9, 5, 1, 3} {
		s, _ = insertSorted(s, v)
	}
	want := []uint32{1, 3, 5, 9}
	if len(s) != len(want) {
		t.Fatalf("set = %v, want %v", s, want)
	}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("set = %v, want %v", s, want)
		}
	}
	if cc := unpackCountry(packCountry("US")); cc != "US" {
		t.Fatalf("country round-trip = %q", cc)
	}
	if packCountry("AA") >= packCountry("AB") || packCountry("AB") >= packCountry("BA") {
		t.Fatal("packed country order must match lexicographic order")
	}
}
