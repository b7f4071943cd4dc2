// Package measure implements the paper's measurement pipeline: observer
// campaigns over a (simulated) I2P network, the hourly-capture /
// daily-cleanup bookkeeping of Section 4.3, and the analyses behind every
// population, churn, capacity and geography figure in Section 5.
package measure

import (
	"sort"

	"github.com/i2pstudy/i2pstudy/internal/netdb"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// PeerTrack accumulates everything the campaign learned about one peer,
// mirroring what the paper's post-processing derived from archived
// RouterInfos. A Dataset holds one per peer index (sim.Sighting.Peer);
// the peer's identity hash is network.Peers[i].ID, not a copy here.
//
// The representation is deliberately compact — a bitset of seen days and
// sorted slices of interned IDs instead of per-peer maps — because a
// global-scale campaign holds one PeerTrack per peer of the network for
// the whole run. At the paper's scale (30.5K daily peers, 90 days) the old
// five-maps-per-peer layout dominated the heap; the compact layout is a
// few dozen bytes per peer, every track's seen words carved from one
// slab, plus two columns over the network's address IDs (sim.AddrTable).
// Fold order is canonical (ascending day, ascending peer index within a
// day), so the whole Dataset is byte-identical across worker counts and
// resume.
type PeerTrack struct {
	// FirstDay and LastDay bound the observation window (study days).
	// Dataset.track sets both on the peer's first observation; a peer
	// never observed keeps the zero track.
	FirstDay, LastDay int
	// seen is a bitset over [StartDay, EndDay) marking observed days,
	// carved from the Dataset's slab on the first observation: nil until
	// then, which is what marks a slot never observed.
	seen []uint64

	// ips holds the network's address IDs (sim.AddrTable) of every
	// distinct public address observed, sorted ascending.
	ips []uint32
	// asns holds the distinct ASNs resolved for those addresses, sorted.
	asns []uint32
	// countries holds the distinct resolved countries as packed ISO-2
	// codes (see packCountry), sorted.
	countries []uint16

	// Flag observations.
	EverFloodfill bool

	// Status observations.
	EverKnownIP    bool
	EverFirewalled bool
	EverHidden     bool
}

// observed reports whether the campaign ever saw the peer.
func (p *PeerTrack) observed() bool { return p.seen != nil }

// LongestRun returns the longest consecutive-day observation streak.
func (p *PeerTrack) LongestRun() int {
	best, cur := 0, 0
	for _, w := range p.seen {
		for b := 0; b < 64; b++ {
			if w&(1<<b) != 0 {
				cur++
				if cur > best {
					best = cur
				}
			} else {
				// Padding bits past EndDay are always zero; they can only
				// break a streak that has already ended.
				cur = 0
			}
		}
	}
	return best
}

// Span returns LastDay - FirstDay + 1, the intermittent-presence length.
func (p *PeerTrack) Span() int {
	return p.LastDay - p.FirstDay + 1
}

// IPCount returns the number of distinct public addresses observed.
func (p *PeerTrack) IPCount() int { return len(p.ips) }

// ASCount returns the number of distinct autonomous systems resolved.
func (p *PeerTrack) ASCount() int { return len(p.asns) }

// ASNs returns the distinct ASNs in ascending order. The slice is the
// track's own storage; callers must not modify it.
func (p *PeerTrack) ASNs() []uint32 { return p.asns }

// packCountry packs an ISO-2 country code ("US", "RU", ...) into a
// uint16 whose numeric order equals the codes' lexicographic order. The
// offline geo database only ever emits two-letter codes.
func packCountry(cc string) uint16 {
	if len(cc) != 2 {
		return 0
	}
	return uint16(cc[0])<<8 | uint16(cc[1])
}

func unpackCountry(c uint16) string {
	return string([]byte{byte(c >> 8), byte(c)})
}

// insertSorted inserts v into ascending-sorted s if absent, reporting
// whether it was added. Per-peer sets are small (a handful of IPs/ASNs),
// so binary search + copy beats a map by an order of magnitude in bytes.
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

// addrGeo is the geographic resolution of one network address, made the
// first time the fold meets the address (seen). geo.DB.Lookup is pure, so
// resolving once per distinct address is exact.
type addrGeo struct {
	asn                 uint32
	country             uint16
	is4, seen, resolved bool
}

// DayStats summarizes one study day — the rows behind Figures 5, 6 and 9.
type DayStats struct {
	Day int

	// Peers is the number of unique peers observed.
	Peers int
	// Unique address counts.
	IPAll, IPv4, IPv6 int

	// Unknown-IP decomposition (Figure 6).
	UnknownIP  int
	Firewalled int
	Hidden     int
	Overlap    int

	// Flag tallies. ClassCounts uses every published letter, so the sum
	// exceeds Peers (Section 5.3.1).
	ClassCounts map[netdb.BandwidthClass]int
	Floodfill   int
	Reachable   int
	Unreachable int

	// Cross-tabulation for Table 1: group -> class -> count.
	GroupClass map[string]map[netdb.BandwidthClass]int
}

func newDayStats(day int) *DayStats {
	return &DayStats{
		Day:         day,
		ClassCounts: make(map[netdb.BandwidthClass]int),
		GroupClass: map[string]map[netdb.BandwidthClass]int{
			"floodfill":   make(map[netdb.BandwidthClass]int),
			"reachable":   make(map[netdb.BandwidthClass]int),
			"unreachable": make(map[netdb.BandwidthClass]int),
		},
	}
}

// Dataset is the accumulated result of a campaign. It is a fixed-size
// fold target: its memory is O(the network's peers + its addresses +
// days), independent of how many day units are in flight, which is what
// lets the streaming campaign drop raw merged records as soon as a day
// has been folded and spilled.
type Dataset struct {
	// StartDay and EndDay bound the campaign ([StartDay, EndDay)).
	StartDay, EndDay int
	// Days holds one entry per campaign day.
	Days []*DayStats

	// Unresolved counts the distinct observed addresses the geo database
	// could not resolve.
	Unresolved int

	// tracks holds one PeerTrack per peer index (sim.Sighting.Peer), sized
	// by the first fold; a peer never observed keeps the zero track.
	// observed counts the tracks that are not, and seen is the slab their
	// day bitsets are carved from.
	tracks   []PeerTrack
	observed int
	seen     []uint64

	// geo and lastMark are dense columns over the network's address IDs
	// (sim.AddrTable), sized by the first fold: each address's resolution,
	// and day+1 of the last day it was counted (zero = never).
	geo      []addrGeo
	lastMark []int32
}

// NewDataset prepares an empty dataset for the given day range.
func NewDataset(startDay, endDay int) *Dataset {
	ds := &Dataset{StartDay: startDay, EndDay: endDay}
	for d := startDay; d < endDay; d++ {
		ds.Days = append(ds.Days, newDayStats(d))
	}
	return ds
}

// sizeTracks sizes the tracks and their seen slab to a network of peers
// peers, once: the first fold over the Dataset calls it.
func (ds *Dataset) sizeTracks(peers int) {
	if ds.tracks == nil {
		ds.tracks = make([]PeerTrack, peers)
		ds.seen = make([]uint64, peers*ds.seenWords())
	}
}

// sizeAddrColumns sizes geo and lastMark to the network's address table,
// once: the first fold over the Dataset calls it.
func (ds *Dataset) sizeAddrColumns(addrs *sim.AddrTable) {
	if ds.geo == nil {
		ds.geo = make([]addrGeo, addrs.NumAddrs())
		ds.lastMark = make([]int32, addrs.NumAddrs())
	}
}

// seenWords is the length of one track's seen bitset.
func (ds *Dataset) seenWords() int { return (ds.EndDay - ds.StartDay + 63) / 64 }

// day returns the DayStats for an absolute study day.
func (ds *Dataset) day(d int) *DayStats {
	return ds.Days[d-ds.StartDay]
}

// track records that peer idx was observed on day and returns its
// PeerTrack. The first observation opens the window at day and carves the
// track's seen words from the slab; days fold in ascending order, so that
// day is the first the peer was seen. It allocates nothing
// (TestTrackAllocatesNothing).
func (ds *Dataset) track(idx int32, day int) *PeerTrack {
	t := &ds.tracks[idx]
	if !t.observed() {
		w := ds.seenWords()
		lo := int(idx) * w
		*t = PeerTrack{FirstDay: day, LastDay: day, seen: ds.seen[lo : lo+w : lo+w]}
		ds.observed++
	}
	if day > t.LastDay {
		t.LastDay = day
	}
	i := day - ds.StartDay
	t.seen[i>>6] |= 1 << (i & 63)
	return t
}

// eachTrack calls fn with the track of every observed peer, in peer-index
// order: the one place the analyses skip the zero tracks of peers the
// campaign never saw.
func (ds *Dataset) eachTrack(fn func(t *PeerTrack)) {
	for i := range ds.tracks {
		if t := &ds.tracks[i]; t.observed() {
			fn(t)
		}
	}
}

// TotalPeers returns the number of distinct peers observed.
func (ds *Dataset) TotalPeers() int { return ds.observed }

// MeanDailyPeers returns the average daily unique-peer count.
func (ds *Dataset) MeanDailyPeers() float64 {
	if len(ds.Days) == 0 {
		return 0
	}
	sum := 0
	for _, d := range ds.Days {
		sum += d.Peers
	}
	return float64(sum) / float64(len(ds.Days))
}
