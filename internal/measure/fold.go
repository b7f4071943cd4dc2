package measure

import (
	"github.com/i2pstudy/i2pstudy/internal/geo"
	"github.com/i2pstudy/i2pstudy/internal/netdb"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// folder folds days of sightings into a Dataset, in ascending day order
// and, within a day, ascending peer order. A day walks network.Peers, the
// network's segment table and the Dataset's tracks in index order and
// touches no map. It keeps no per-peer state of its own: what a peer
// published is the Dataset's segment marks, which a fold sets at most
// once each, so a fresh folder over a half-folded Dataset folds exactly
// what a warm one would (TestFoldStateColdOrWarm).
type folder struct {
	ds  *Dataset
	net *sim.Network
	db  *geo.DB

	// The day's capacity-flag tallies, written into its DayStats maps
	// once the day is folded.
	classes, floodfill, reachable, unreachable classCounts
}

// newFolder returns a folder of the network's sightings into ds.
func newFolder(ds *Dataset, network *sim.Network) *folder {
	ds.sizeTracks(len(network.Peers))
	ds.sizeAddrColumns(network.AddrTable())
	return &folder{ds: ds, net: network, db: network.GeoDB()}
}

// fold folds one day's merged sightings into the Dataset, reading what
// each sighted peer's RouterInfo would publish that day straight from the
// network's immutable peer: its scheduled addresses, its capacity flags,
// and whether its draw holds an introducer. recs must be in canonical
// peer order, ascending days and sorted records within a day, the order
// every worker count and resume folds in.
func (f *folder) fold(day int, recs []sim.Sighting) {
	ds := f.ds
	stats := ds.day(day)
	for _, s := range recs {
		p := &f.net.Peers[s.Peer]
		stats.Peers++
		t := ds.track(s.Peer, day)

		// Addresses and status classification (Section 5.1 / Figure 6), by
		// what the peer publishes: RouterInfo.IPs order is IPv4 then IPv6.
		var knownIP, firewalled, hidden bool
		switch p.Status {
		case sim.StatusKnownIP:
			if pos := ds.addrs.SegmentOn(int(s.Peer), day); pos >= 0 {
				v4, v6 := ds.addrs.SegmentIDs(pos)
				if knownIP = v4 >= 0 || v6 >= 0; knownIP {
					ds.markSegment(f.db, pos)
					for _, id := range [2]int32{v4, v6} {
						if id >= 0 {
							ds.countAddr(stats, id)
						}
					}
				}
			}
			// A record with no usable address and no introducers reads as
			// hidden, H flag or not.
			hidden = !knownIP
		case sim.StatusFirewalled, sim.StatusToggling:
			// Every drawn introducer carries a valid address, so one is
			// enough; a peer whose picks were all dropped reads as hidden.
			// Toggling peers also carry the H flag: both groups.
			firewalled = s.N > 0
			hidden = p.Status == sim.StatusToggling || !firewalled
		case sim.StatusHidden:
			hidden = true
		}
		if knownIP {
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
		f.classes.add(p)
		if p.Status == sim.StatusKnownIP && p.Reachable {
			stats.Reachable++
			f.reachable.add(p)
		} else {
			stats.Unreachable++
			f.unreachable.add(p)
		}
		if p.Floodfill {
			stats.Floodfill++
			t.EverFloodfill = true
			f.floodfill.add(p)
		}
	}
	f.classes.flush(stats.ClassCounts)
	f.floodfill.flush(stats.GroupClass["floodfill"])
	f.reachable.flush(stats.GroupClass["reachable"])
	f.unreachable.flush(stats.GroupClass["unreachable"])
}

// classCounts tallies capacity-flag letters by class byte.
type classCounts [256]int

// add counts every letter the peer publishes: its primary class plus the
// legacy O a P or X router also publishes (Caps.PublishedClasses).
func (c *classCounts) add(p *sim.Peer) {
	c[p.Class]++
	if p.LegacyO && p.Class != netdb.ClassO {
		c[netdb.ClassO]++
	}
}

// flush adds the non-zero tallies into m — the letters a per-record map
// increment would have created — and zeroes c for the next day.
func (c *classCounts) flush(m map[netdb.BandwidthClass]int) {
	for cl, n := range c {
		if n != 0 {
			m[netdb.BandwidthClass(cl)] += n
		}
	}
	*c = classCounts{}
}

// countAddr counts address id into its day's distinct-address tallies,
// once a day, through its lastMark slot (day+1, so zero means never)
// instead of a fresh per-day map. The first count of an unresolvable
// address is also its one count in Unresolved — one per distinct
// address, not per (record, address, day) occurrence, which used to
// inflate the summary once per day a bad address stayed alive.
func (ds *Dataset) countAddr(stats *DayStats, id int32) {
	marker := int32(stats.Day + 1)
	last := ds.lastMark[id]
	if last == marker {
		return
	}
	if last == 0 && !ds.geo[id].resolved {
		ds.Unresolved++
	}
	ds.lastMark[id] = marker
	stats.IPAll++
	if ds.geo[id].is4 {
		stats.IPv4++
	} else {
		stats.IPv6++
	}
}
