package measure

import (
	"cmp"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/geo"
	"github.com/i2pstudy/i2pstudy/internal/netdb"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// This file keeps the campaign's RouterInfo path as it stood before the
// campaign captured sightings: the fold over materialized RouterInfos and
// the canonical sort over them. Nothing outside the tests runs it; the
// sighting fold is held to it Dataset for Dataset
// (TestCampaignStreamingMatchesRetained, TestStreamFoldOrderInvariant,
// TestResumedDatasetMatchesRouterInfoFold, TestFoldOrderMovesNoAnalysisByte).

// referencePeerIndex maps each peer's identity to its index in the
// network, the one lookup the RouterInfo path needs.
func referencePeerIndex(network *sim.Network) map[netdb.Hash]int32 {
	index := make(map[netdb.Hash]int32, len(network.Peers))
	for i, p := range network.Peers {
		index[p.ID] = int32(i)
	}
	return index
}

// referenceSortByPeer is sortByPeer over RouterInfos: each record's
// identity is mapped to its peer index through referencePeerIndex.
func referenceSortByPeer(network *sim.Network, recs []*netdb.RouterInfo) {
	index := referencePeerIndex(network)
	slices.SortFunc(recs, func(a, b *netdb.RouterInfo) int {
		return cmp.Compare(index[a.Identity], index[b.Identity])
	})
}

// referenceSets is what a PeerTrack kept before the Dataset marked
// schedule segments: by peer index, the sorted sets of the address IDs,
// the resolved ASNs and the packed countries (geo.PackCountry) the peer was
// observed with, each grown by insertSorted. peerSets is held to it
// (TestPeerSetsMatchReference).
type referenceSets struct {
	ips       [][]uint32
	asns      [][]uint32
	countries [][]uint16
}

func newReferenceSets(peers int) *referenceSets {
	return &referenceSets{
		ips:       make([][]uint32, peers),
		asns:      make([][]uint32, peers),
		countries: make([][]uint16, peers),
	}
}

// insertSorted inserts v into ascending-sorted s if absent, reporting
// whether it was added.
func insertSorted[E interface{ ~uint16 | ~uint32 }](s []E, v E) ([]E, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i < len(s) && s[i] == v {
		return s, false
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s, true
}

// referenceAccumulateDay is Dataset.accumulateDay as it read a day of
// RouterInfos: the track through the identity's peer index
// (referencePeerIndex), addresses through IPs, each mapped to its ID
// through the network's table (sim.AddrTable.IDOf) and added to the
// peer's sets in sets, status through HasKnownIP / Firewalled /
// HiddenPeer, classes through Caps.PublishedClasses. A record publishing
// an address marks the segment the peer publishes that day
// (sim.AddrTable.SegmentOn), so the Dataset it builds is the campaign's
// byte for byte.
func (ds *Dataset) referenceAccumulateDay(network *sim.Network, day int, recs []*netdb.RouterInfo, sets *referenceSets) {
	addrs := network.AddrTable()
	index := referencePeerIndex(network)
	ds.sizeTracks(len(network.Peers))
	ds.sizeAddrColumns(addrs)
	stats := ds.day(day)
	// Per-day distinct-address counting rides the lastMark column (day+1,
	// so zero means never) instead of a fresh per-day map.
	marker := int32(day + 1)

	for _, ri := range recs {
		stats.Peers++

		// Peer tracking.
		idx, ok := index[ri.Identity]
		if !ok {
			panic("a RouterInfo of no peer of the network")
		}
		t := ds.track(idx, day)

		// Addresses.
		if len(ri.IPs()) > 0 {
			pos := addrs.SegmentOn(int(idx), day)
			ds.marked[pos>>6] |= 1 << (pos & 63)
		}
		for _, addr := range ri.IPs() {
			id := addrs.IDOf(addr)
			g := &ds.geo[id]
			if !g.seen {
				*g = addrGeo{is4: addr.Is4(), seen: true}
				if rec, ok := network.GeoDB().Lookup(addr); ok {
					g.asn = rec.ASN
					g.country = geo.PackCountry(rec.CountryCode)
					g.resolved = true
				}
			}
			sets.ips[idx], _ = insertSorted(sets.ips[idx], uint32(id))
			if ds.lastMark[id] != marker {
				if ds.lastMark[id] == 0 && !g.resolved {
					// One count per distinct unresolvable address — not
					// per (record, address, day) occurrence, which used to
					// inflate the summary once per day a bad address
					// stayed alive.
					ds.Unresolved++
				}
				ds.lastMark[id] = marker
				stats.IPAll++
				if g.is4 {
					stats.IPv4++
				} else {
					stats.IPv6++
				}
			}
			if g.resolved {
				sets.asns[idx], _ = insertSorted(sets.asns[idx], g.asn)
				sets.countries[idx], _ = insertSorted(sets.countries[idx], g.country)
			}
		}

		// Status classification (Section 5.1 / Figure 6).
		firewalled := ri.Firewalled()
		hidden := ri.HiddenPeer()
		if ri.HasKnownIP() {
			t.EverKnownIP = true
		} else {
			stats.UnknownIP++
		}
		if firewalled {
			stats.Firewalled++
			t.EverFirewalled = true
		}
		if hidden {
			stats.Hidden++
			t.EverHidden = true
		}
		if firewalled && hidden {
			stats.Overlap++
		}

		// Capacity flags (Figure 9, Table 1).
		published := ri.Caps.PublishedClasses()
		for _, cl := range published {
			stats.ClassCounts[cl]++
		}
		if ri.Caps.Floodfill {
			stats.Floodfill++
			t.EverFloodfill = true
			for _, cl := range published {
				stats.GroupClass["floodfill"][cl]++
			}
		}
		if ri.Caps.Reachable {
			stats.Reachable++
			for _, cl := range published {
				stats.GroupClass["reachable"][cl]++
			}
		} else {
			stats.Unreachable++
			for _, cl := range published {
				stats.GroupClass["unreachable"][cl]++
			}
		}
	}
}

// TestPeerSetsMatchReference: every observed peer's address count, ASN
// list and country list, derived from its marked segments (peerSets),
// equal the sorted sets the RouterInfo fold grows record by record
// (referenceSets), and the two folds build the same Dataset — on the
// census's network and fleet, at both bench seeds, over 45 days and over
// the paper's 90, where Figure 8's tail of peers with more than a
// hundred addresses lives. -short keeps seed 2018 at 90 days.
func TestPeerSetsMatchReference(t *testing.T) {
	seeds, horizons := []uint64{2018, 424242}, []int{45, 90}
	if testing.Short() {
		seeds, horizons = seeds[:1], horizons[1:]
	}
	for _, seed := range seeds {
		for _, days := range horizons {
			n, err := sim.New(sim.Config{Seed: seed, Days: days, TargetDailyPeers: 3050})
			if err != nil {
				t.Fatal(err)
			}
			c, err := NewCampaign(n, CampaignConfig{Observers: DefaultObserverFleet(20), EndDay: days})
			if err != nil {
				t.Fatal(err)
			}
			ds, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			ref, sets := NewDataset(0, days), newReferenceSets(len(n.Peers))
			for day := range days {
				ref.referenceAccumulateDay(n, day, retainedUnit(c, day), sets)
			}
			if !reflect.DeepEqual(ds, ref) {
				t.Fatalf("seed %d, %d days: the sighting and the RouterInfo fold build different Datasets", seed, days)
			}
			derived, over100 := peerSets{ds: ds}, 0
			ds.eachTrack(func(i int, _ *PeerTrack) {
				if got, want := derived.ipCount(i), len(sets.ips[i]); got != want {
					t.Fatalf("seed %d, %d days, peer %d: %d addresses, the reference %d", seed, days, i, got, want)
				}
				if got := sortedCopy(derived.asnsOf(i)); !slices.Equal(got, sets.asns[i]) {
					t.Fatalf("seed %d, %d days, peer %d: ASNs %v, the reference %v", seed, days, i, got, sets.asns[i])
				}
				if got := sortedCopy(derived.countriesOf(i)); !slices.Equal(got, sets.countries[i]) {
					t.Fatalf("seed %d, %d days, peer %d: countries %v, the reference %v", seed, days, i, got, sets.countries[i])
				}
				if len(sets.ips[i]) > 100 {
					over100++
				}
			})
			t.Logf("seed %d, %d days: %d observed peers, %d with more than 100 addresses", seed, days, ds.TotalPeers(), over100)
			if days == 90 && over100 == 0 {
				t.Errorf("seed %d, 90 days: no peer has more than 100 addresses; Figure 8's tail goes unchecked", seed)
			}
		}
	}
}

// sortedCopy returns a sorted copy of s: peerSets lists its ASNs and
// countries in no particular order.
func sortedCopy[E cmp.Ordered](s []E) []E {
	c := slices.Clone(s)
	slices.Sort(c)
	return c
}
