package measure

import (
	"math"
	"net/netip"

	"github.com/i2pstudy/i2pstudy/internal/geo"
	"github.com/i2pstudy/i2pstudy/internal/netdb"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// folder folds days of sightings into a Dataset, in ascending day order
// and, within a day, ascending peer order. It keeps dense state by peer
// index — each peer's track and the intern IDs of the address segment it
// last folded — so a day walks network.Peers, that state and the tracks
// in index order and touches a hash map only the first time it sees a
// peer or one of its address segments.
//
// The state is a cache of what the Dataset already holds, kept beside it
// rather than in it: a fresh folder over a half-folded Dataset looks
// every peer up again and folds exactly what a warm one would
// (TestFoldStateColdOrWarm).
type folder struct {
	ds  *Dataset
	net *sim.Network
	db  *geo.DB

	peers []peerFold // by peer index

	// The day's capacity-flag tallies, written into its DayStats maps
	// once the day is folded.
	classes, floodfill, reachable, unreachable classCounts
}

// peerFold is what the folder remembers of one peer.
type peerFold struct {
	track *PeerTrack // nil until the folder first sees the peer
	// seg is the address-schedule segment (sim.Peer.SegmentOn) whose
	// addresses are interned in addrs and already in the track's sets,
	// or unfolded.
	seg   int32
	addrs [2]uint32 // IPv4 and IPv6 intern IDs, noAddr where not published
}

const (
	// unfolded is a peerFold.seg no segment index can equal.
	unfolded = math.MinInt32
	// noAddr is the intern ID of an address a segment does not publish.
	noAddr = math.MaxUint32
)

func newFolder(ds *Dataset, network *sim.Network) *folder {
	return &folder{ds: ds, net: network, db: network.GeoDB(), peers: make([]peerFold, len(network.Peers))}
}

// fold folds one day's merged sightings into the Dataset, reading what
// each sighted peer's RouterInfo would publish that day straight from the
// network's immutable peer: its scheduled addresses, its capacity flags,
// and whether its draw holds an introducer. recs must be in canonical
// peer order: intern IDs are assigned on first sight, so the fold order —
// ascending days, sorted records within a day — is what makes the Dataset
// byte-identical across worker counts and resume.
func (f *folder) fold(day int, recs []sim.Sighting) {
	ds := f.ds
	stats := ds.day(day)
	for _, s := range recs {
		p := f.net.Peers[s.Peer]
		st := &f.peers[s.Peer]
		stats.Peers++

		t := st.track
		if t == nil {
			t = ds.track(p.ID, day)
			*st = peerFold{track: t, seg: unfolded}
		} else {
			t.observe(day, ds.StartDay)
		}

		// Addresses and status classification (Section 5.1 / Figure 6), by
		// what the peer publishes: RouterInfo.IPs order is IPv4 then IPv6.
		var knownIP, firewalled, hidden bool
		switch p.Status {
		case sim.StatusKnownIP:
			if seg := int32(p.SegmentOn(day)); seg != st.seg {
				v4, v6 := p.AddrOnDay(day)
				st.seg = seg
				st.addrs = [2]uint32{ds.addAddr(f.db, t, v4), ds.addAddr(f.db, t, v6)}
			}
			for _, id := range st.addrs {
				if id != noAddr {
					knownIP = true
					ds.countAddr(stats, id)
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

// addAddr interns one address the peer behind t publishes and adds it,
// with its resolved AS and country, to the peer's sets. It returns the
// intern ID, or noAddr for an address the peer does not publish.
func (ds *Dataset) addAddr(db *geo.DB, t *PeerTrack, addr netip.Addr) uint32 {
	if !addr.IsValid() {
		return noAddr
	}
	id, g, fresh := ds.addrs.intern(db, addr)
	if fresh && !g.resolved {
		// One count per distinct unresolvable address — not per
		// (record, address, day) occurrence, which used to inflate
		// the summary once per day a bad address stayed alive.
		ds.Unresolved++
	}
	t.ips, _ = insertSorted(t.ips, id)
	if g.resolved {
		t.asns, _ = insertSorted(t.asns, g.asn)
		t.countries, _ = insertSorted(t.countries, g.country)
	}
	return id
}

// countAddr counts an interned address into its day's distinct-address
// tallies, once a day. The count rides the intern table's lastMark slot
// (day+1, so zero means never) instead of a fresh per-day map.
func (ds *Dataset) countAddr(stats *DayStats, id uint32) {
	marker := int32(stats.Day + 1)
	if ds.addrs.lastMark[id] == marker {
		return
	}
	ds.addrs.lastMark[id] = marker
	stats.IPAll++
	if ds.addrs.geo[id].is4 {
		stats.IPv4++
	} else {
		stats.IPv6++
	}
}
