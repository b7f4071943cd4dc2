package measure

import (
	"math/bits"
	"reflect"
	"testing"

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
	db, addrs := n.GeoDB(), n.AddrTable()
	// The simulator never publishes an unresolvable address, so the test
	// marks two of the network's IPv6 addresses unresolved in the geo
	// column before the fold first meets them, and feeds the fold's
	// per-address step directly.
	var bogus []int32
	for id := range int32(addrs.NumAddrs()) {
		if addrs.Addr(id).Is6() && len(bogus) < 2 {
			bogus = append(bogus, id)
		}
	}
	if len(bogus) < 2 {
		t.Fatalf("the network publishes %d IPv6 addresses, want 2", len(bogus))
	}
	newDataset := func() *Dataset {
		ds := NewDataset(0, 10)
		ds.sizeTracks(len(n.Peers))
		ds.sizeAddrColumns(addrs)
		for _, id := range bogus {
			ds.geo[id] = addrGeo{seen: true}
		}
		return ds
	}
	fold := func(ds *Dataset, day int, idx, id int32) {
		ds.addAddr(db, addrs, ds.track(idx, day), id)
		ds.countAddr(ds.day(day), id)
	}

	ds := newDataset()
	for day := 0; day < 10; day++ {
		fold(ds, day, 1, bogus[0])
	}
	if ds.Unresolved != 1 {
		t.Fatalf("Unresolved = %d, want 1 (one distinct unresolvable address over 10 days)", ds.Unresolved)
	}
	tr := &ds.tracks[1]
	if tr.IPCount() != 1 || tr.ASCount() != 0 || tr.DaysObserved() != 10 || ds.TotalPeers() != 1 {
		t.Fatalf("track mis-accumulated: %+v (%d peers)", tr, ds.TotalPeers())
	}
	// Unresolvable addresses still count toward the per-day IP totals
	// (they were observed, just not located), exactly as before the fix.
	for _, d := range ds.Days {
		if d.IPAll != 1 || d.IPv6 != 1 {
			t.Fatalf("day %d: IPAll=%d IPv6=%d, want 1/1", d.Day, d.IPAll, d.IPv6)
		}
	}
	// A second distinct bad address on a later day adds exactly one more.
	ds2 := newDataset()
	for day := 0; day < 10; day++ {
		fold(ds2, day, 1, bogus[0])
		fold(ds2, day, 2, bogus[1])
	}
	if ds2.Unresolved != 2 {
		t.Fatalf("Unresolved = %d, want 2", ds2.Unresolved)
	}
}

// TestTracksAlwaysObserved proves the invariant the analyses lean on
// when Dataset.eachTrack skips the unobserved slots: in a campaign-built
// dataset every observed slot has a coherent, observed [FirstDay,
// LastDay] window, every other slot is the zero track, and TotalPeers
// counts the observed slots.
func TestTracksAlwaysObserved(t *testing.T) {
	n, ds := dataset(t)
	if len(ds.tracks) != len(n.Peers) {
		t.Fatalf("%d tracks for %d peers", len(ds.tracks), len(n.Peers))
	}
	observed := 0
	for i := range ds.tracks {
		tr := &ds.tracks[i]
		if !tr.observed() {
			if !reflect.DeepEqual(*tr, PeerTrack{}) {
				t.Fatalf("peer %d: never observed but its track is %+v", i, *tr)
			}
			continue
		}
		observed++
		if tr.FirstDay < ds.StartDay || tr.LastDay >= ds.EndDay || tr.FirstDay > tr.LastDay {
			t.Fatalf("peer %d: incoherent window [%d, %d]", i, tr.FirstDay, tr.LastDay)
		}
		if tr.DaysObserved() == 0 {
			t.Fatalf("peer %d: track carved but never observed", i)
		}
		for _, day := range []int{tr.FirstDay, tr.LastDay} {
			idx := day - ds.StartDay
			if tr.seen[idx>>6]&(1<<(idx&63)) == 0 {
				t.Fatalf("peer %d: day %d bounds the window but is not marked seen", i, day)
			}
		}
	}
	if observed == 0 || observed == len(ds.tracks) {
		t.Fatalf("%d of %d peers observed: want some but not all", observed, len(ds.tracks))
	}
	if ds.TotalPeers() != observed {
		t.Fatalf("TotalPeers = %d, %d slots observed", ds.TotalPeers(), observed)
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

// DaysObserved returns on how many distinct days the peer was seen.
func (p *PeerTrack) DaysObserved() int {
	n := 0
	for _, w := range p.seen {
		n += bits.OnesCount64(w)
	}
	return n
}
