package measure

import (
	"cmp"
	"slices"

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

// referenceAccumulateDay is Dataset.accumulateDay as it read a day of
// RouterInfos: the track through the identity's peer index
// (referencePeerIndex), addresses through IPs, each mapped to its ID
// through the network's table (sim.AddrTable.IDOf), status through
// HasKnownIP / Firewalled / HiddenPeer, classes through
// Caps.PublishedClasses.
func (ds *Dataset) referenceAccumulateDay(network *sim.Network, day int, recs []*netdb.RouterInfo) {
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
		for _, addr := range ri.IPs() {
			id := addrs.IDOf(addr)
			g := &ds.geo[id]
			if !g.seen {
				*g = addrGeo{is4: addr.Is4(), seen: true}
				if rec, ok := network.GeoDB().Lookup(addr); ok {
					g.asn = rec.ASN
					g.country = packCountry(rec.CountryCode)
					g.resolved = true
				}
			}
			t.ips, _ = insertSorted(t.ips, uint32(id))
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
				t.asns, _ = insertSorted(t.asns, g.asn)
				t.countries, _ = insertSorted(t.countries, g.country)
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
