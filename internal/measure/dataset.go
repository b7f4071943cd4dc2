// Package measure implements the paper's measurement pipeline: observer
// campaigns over a (simulated) I2P network, the hourly-capture /
// daily-cleanup bookkeeping of Section 4.3, and the analyses behind every
// population, churn, capacity and geography figure in Section 5.
package measure

import (
	"cmp"
	"math/bits"
	"slices"

	"github.com/i2pstudy/i2pstudy/internal/geo"
	"github.com/i2pstudy/i2pstudy/internal/netdb"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// PeerTrack accumulates what the campaign learned about one peer that is
// not an address, mirroring what the paper's post-processing derived
// from archived RouterInfos. A Dataset holds one per peer index
// (sim.Sighting.Peer); the peer's identity hash is network.Peers[i].ID,
// not a copy here.
//
// The representation is deliberately compact, because a global-scale
// campaign holds one PeerTrack per peer of the network for the whole
// run: the window and the flags, no slice and no pointer
// (TestPeerTrackLayout). The days the peer was seen are its words of the
// Dataset's seen slab, found by peer index, and the addresses it was seen
// with are the Dataset's marks over the network's schedule segments
// (sim.AddrTable), from which the analyses derive its addresses, ASes and
// countries (peerSets). Fold order is canonical (ascending day, ascending
// peer index within a day), and neither bitset depends on it, so the
// whole Dataset is byte-identical across worker counts and resume.
type PeerTrack struct {
	// FirstDay and LastDay bound the observation window (study days).
	// Dataset.track sets both on the peer's first observation; a peer
	// never observed keeps the zero track.
	FirstDay, LastDay int32

	// opened marks a peer the campaign observed: Dataset.track sets it
	// with the window, and the zero track's is false.
	opened bool

	// Flag observations.
	EverFloodfill bool

	// Status observations.
	EverKnownIP    bool
	EverFirewalled bool
	EverHidden     bool
}

// observed reports whether the campaign ever saw the peer.
func (p *PeerTrack) observed() bool { return p.opened }

// Span returns LastDay - FirstDay + 1, the intermittent-presence length.
func (p *PeerTrack) Span() int {
	return int(p.LastDay-p.FirstDay) + 1
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
// fold target: its memory is O(the network's peers + its addresses and
// schedule segments + days), independent of how many day units are in flight, which is what
// lets the streaming campaign drop raw merged records as soon as a day
// has been folded and spilled. It keeps no set per peer: a peer's days
// and addresses are bits in two bitsets, one over (peer, day) and one
// over the network's schedule segments, and the analyses derive the
// per-peer sets from them (peerSets).
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
	// observed counts the tracks that are not, and seen is the slab of
	// their day bitsets: peer i's are the seenWords() words at
	// i*seenWords().
	tracks   []PeerTrack
	observed int
	seen     []uint64

	// addrs is the network's address table, set by the first fold.
	// marked is a bitset over its segment positions (sim.AddrTable
	// .NumSegments): a segment's bit is set the first time the fold sees
	// its peer publishing it, so a peer's observed addresses are the IDs
	// of its marked segments.
	addrs  *sim.AddrTable
	marked []uint64

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

// sizeAddrColumns sizes the segment marks, geo and lastMark to the
// network's address table, once: the first fold over the Dataset calls
// it.
func (ds *Dataset) sizeAddrColumns(addrs *sim.AddrTable) {
	if ds.addrs == nil {
		ds.addrs = addrs
		ds.marked = make([]uint64, (addrs.NumSegments()+63)/64)
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
// PeerTrack. The first observation opens the window at day; days fold in
// ascending order, so that day is the first the peer was seen. It
// allocates nothing (TestTrackAllocatesNothing).
func (ds *Dataset) track(idx int32, day int) *PeerTrack {
	t := &ds.tracks[idx]
	if !t.opened {
		*t = PeerTrack{FirstDay: int32(day), LastDay: int32(day), opened: true}
		ds.observed++
	}
	if int32(day) > t.LastDay {
		t.LastDay = int32(day)
	}
	i := int(idx)*ds.seenWords()*64 + day - ds.StartDay
	ds.seen[i>>6] |= 1 << (i & 63)
	return t
}

// seenOf returns peer idx's words of the seen slab: bit d marks day
// StartDay+d.
func (ds *Dataset) seenOf(idx int) []uint64 {
	w := ds.seenWords()
	return ds.seen[idx*w : idx*w+w]
}

// longestRun returns peer idx's longest consecutive-day observation
// streak. It steps from run to run of set bits, a few steps a word: the
// run carried in from earlier words ends at the word's first zero, the
// word's top run carries out, and the runs between are measured one
// shift each. Padding bits past EndDay are always zero; they can only
// end a streak, never extend one.
func (ds *Dataset) longestRun(idx int) int {
	best, carried := 0, 0
	for _, w := range ds.seenOf(idx) {
		if w == ^uint64(0) {
			carried += 64
			continue
		}
		low := bits.TrailingZeros64(^w)
		best = max(best, carried+low)
		carried = bits.LeadingZeros64(^w)
		// w>>low starts at a zero and so does every step after a run,
		// which keeps each run below 64 bits.
		for m := w >> low; m != 0; {
			m >>= bits.TrailingZeros64(m)
			run := bits.TrailingZeros64(^m)
			best = max(best, run)
			m >>= run
		}
	}
	return max(best, carried)
}

// eachTrack calls fn with the index and track of every observed peer, in
// peer-index order: the one place the analyses skip the zero tracks of
// peers the campaign never saw.
func (ds *Dataset) eachTrack(fn func(idx int, t *PeerTrack)) {
	for i := range ds.tracks {
		if t := &ds.tracks[i]; t.observed() {
			fn(i, t)
		}
	}
}

// markSegment marks the segment at position pos as seen, resolving each
// of its addresses on the fold's first sight of the address. geo.DB
// .Lookup is pure, so resolving once per distinct address is exact.
func (ds *Dataset) markSegment(db *geo.DB, pos int) {
	word, bit := pos>>6, uint64(1)<<(pos&63)
	if ds.marked[word]&bit != 0 {
		return
	}
	ds.marked[word] |= bit
	v4, v6 := ds.addrs.SegmentIDs(pos)
	for _, id := range [2]int32{v4, v6} {
		if id < 0 || ds.geo[id].seen {
			continue
		}
		addr := ds.addrs.Addr(id)
		g := addrGeo{is4: addr.Is4(), seen: true}
		if rec, ok := db.Lookup(addr); ok {
			g.asn, g.country, g.resolved = rec.ASN, geo.PackCountry(rec.CountryCode), true
		}
		ds.geo[id] = g
	}
}

// peerSets derives a peer's distinct addresses, ASNs and countries from
// its marked segments, through the Dataset's geo column. The slices are
// scratch the next call reuses; the analyses run concurrently (RunAll),
// so each call of an analysis owns one peerSets, and the Dataset holds
// no buffer.
type peerSets struct {
	ds        *Dataset
	ids       []int32
	asns      []uint32
	countries []uint16
}

// load gathers the address IDs of peer idx's marked segments, with
// repeats: two segments may publish the same address.
func (s *peerSets) load(idx int) {
	s.ids = s.ids[:0]
	lo, hi := s.ds.addrs.PeerSegments(idx)
	for pos := lo; pos < hi; pos++ {
		if s.ds.marked[pos>>6]&(1<<(pos&63)) == 0 {
			continue
		}
		v4, v6 := s.ds.addrs.SegmentIDs(pos)
		if v4 >= 0 {
			s.ids = append(s.ids, v4)
		}
		if v6 >= 0 {
			s.ids = append(s.ids, v6)
		}
	}
}

// ipCount returns the number of distinct public addresses peer idx was
// observed with: zero for an unknown-IP peer.
func (s *peerSets) ipCount(idx int) int {
	s.load(idx)
	return len(distinct(s.ids))
}

// asnsOf returns the distinct ASNs resolved for peer idx's addresses, in
// no particular order, in scratch the next call reuses.
func (s *peerSets) asnsOf(idx int) []uint32 {
	s.load(idx)
	s.asns = s.asns[:0]
	for _, id := range s.ids {
		if g := &s.ds.geo[id]; g.resolved {
			s.asns = append(s.asns, g.asn)
		}
	}
	return distinct(s.asns)
}

// countriesOf returns the distinct countries (geo.PackCountry) resolved for
// peer idx's addresses, in no particular order, in scratch the next call
// reuses.
func (s *peerSets) countriesOf(idx int) []uint16 {
	s.load(idx)
	s.countries = s.countries[:0]
	for _, id := range s.ids {
		if g := &s.ds.geo[id]; g.resolved {
			s.countries = append(s.countries, g.country)
		}
	}
	return distinct(s.countries)
}

// distinct returns the distinct values of v, reordering v in place. Most
// peers carry a handful of distinct values, which a scan dedupes faster
// than a sort; past smallSet of them (Figure 8's tail of peers with a
// hundred addresses) what is left is sorted.
func distinct[E cmp.Ordered](v []E) []E {
	const smallSet = 16
	out := v[:0]
	for i, x := range v {
		if slices.Contains(out, x) {
			continue
		}
		if len(out) == smallSet {
			// out and v[i:] hold every distinct value of v.
			v = v[:len(out)+copy(v[len(out):], v[i:])]
			slices.Sort(v)
			return slices.Compact(v)
		}
		out = append(out, x)
	}
	return out
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
