package measure

import (
	"cmp"
	"slices"

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

// referenceSortByPeer is sortByPeer over RouterInfos: each record's
// identity is mapped to its peer index through the network.
func referenceSortByPeer(network *sim.Network, recs []*netdb.RouterInfo) {
	index := make(map[netdb.Hash]int, len(network.Peers))
	for i, p := range network.Peers {
		index[p.ID] = i
	}
	slices.SortFunc(recs, func(a, b *netdb.RouterInfo) int {
		return cmp.Compare(index[a.Identity], index[b.Identity])
	})
}

// referenceAccumulateDay is Dataset.accumulateDay as it read a day of
// RouterInfos: addresses through IPs, status through HasKnownIP /
// Firewalled / HiddenPeer, classes through Caps.PublishedClasses.
func (ds *Dataset) referenceAccumulateDay(db *geo.DB, day int, recs []*netdb.RouterInfo) {
	stats := ds.day(day)
	// Per-day distinct-address counting rides the intern table's lastMark
	// slot (day+1, so zero means never) instead of a fresh per-day map.
	marker := int32(day + 1)

	for _, ri := range recs {
		stats.Peers++

		// Peer tracking.
		t := ds.track(ri.Identity, day)

		// Addresses.
		for _, addr := range ri.IPs() {
			id, g, fresh := ds.addrs.intern(db, addr)
			if fresh && !g.resolved {
				// One count per distinct unresolvable address — not per
				// (record, address, day) occurrence, which used to inflate
				// the summary once per day a bad address stayed alive.
				ds.Unresolved++
			}
			t.ips, _ = insertSorted(t.ips, id)
			if ds.addrs.lastMark[id] != marker {
				ds.addrs.lastMark[id] = marker
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
