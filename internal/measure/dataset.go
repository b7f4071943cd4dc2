// Package measure implements the paper's measurement pipeline: observer
// campaigns over a (simulated) I2P network, the hourly-capture /
// daily-cleanup bookkeeping of Section 4.3, and the analyses behind every
// population, churn, capacity and geography figure in Section 5.
package measure

import (
	"math/bits"
	"net/netip"
	"sort"

	"github.com/i2pstudy/i2pstudy/internal/geo"
	"github.com/i2pstudy/i2pstudy/internal/netdb"
)

// PeerTrack accumulates everything the campaign learned about one peer
// (keyed by identity hash), mirroring what the paper's post-processing
// derived from archived RouterInfos.
//
// The representation is deliberately compact — a bitset of seen days and
// sorted slices of interned IDs instead of per-peer maps — because a
// global-scale campaign holds one PeerTrack per distinct peer for the
// whole run. At the paper's scale (30.5K daily peers, 90 days) the old
// five-maps-per-peer layout dominated the heap; the compact layout is a
// few dozen bytes per peer plus the shared intern tables. Fold order is
// canonical (ascending day, ascending peer index within a day), so the
// interned IDs — and therefore the whole Dataset — are byte-identical
// across worker counts and resume.
type PeerTrack struct {
	Hash netdb.Hash

	// FirstDay and LastDay bound the observation window (study days).
	// A track is only ever created by an observation, so FirstDay is
	// always a real day — see Dataset.track.
	FirstDay, LastDay int
	// seen is a bitset over [StartDay, EndDay) marking observed days.
	seen []uint64

	// ips holds the interned IDs (Dataset.addrs) of every distinct
	// public address observed, sorted ascending.
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

// observe records that the peer was seen on day, a study day of a
// Dataset starting at startDay.
func (p *PeerTrack) observe(day, startDay int) {
	if day > p.LastDay {
		p.LastDay = day
	}
	idx := day - startDay
	p.seen[idx>>6] |= 1 << (idx & 63)
}

// DaysObserved returns on how many distinct days the peer was seen.
func (p *PeerTrack) DaysObserved() int {
	n := 0
	for _, w := range p.seen {
		n += bits.OnesCount64(w)
	}
	return n
}

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

// CountryCodes returns the distinct resolved country codes in ascending
// (lexicographic) order.
func (p *PeerTrack) CountryCodes() []string {
	out := make([]string, len(p.countries))
	for i, c := range p.countries {
		out[i] = unpackCountry(c)
	}
	return out
}

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

// addrGeo is the memoized geographic resolution of one interned address.
type addrGeo struct {
	asn      uint32
	country  uint16
	is4      bool
	resolved bool
}

// addrIntern assigns dense uint32 IDs to every distinct public address a
// campaign observes and memoizes its geo resolution, in the style of
// censor.AddrIndex. IDs are assigned in canonical fold order (ascending
// day, ascending peer index, IPv4 before IPv6), so two runs over the same
// observations build identical tables regardless of worker count or
// streaming mode. No analysis reads an ID itself — only how many a peer
// has — so the order is free to change with the fold's.
type addrIntern struct {
	ids map[netip.Addr]uint32
	geo []addrGeo
	// lastMark[id] holds day+1 of the most recent day the address was
	// counted, replacing the old per-day "seen this day" map for the
	// distinct-IP day counters (zero = never).
	lastMark []int32
}

func newAddrIntern() *addrIntern {
	return &addrIntern{ids: make(map[netip.Addr]uint32)}
}

// intern returns the address's ID and memoized geo record, reporting
// whether this is the first time the address was seen. geo.DB.Lookup is
// pure, so resolving once per distinct address is exact — and it is what
// makes Dataset.Unresolved count distinct unresolvable addresses rather
// than (record, address, day) occurrences.
func (a *addrIntern) intern(db *geo.DB, addr netip.Addr) (uint32, addrGeo, bool) {
	if id, ok := a.ids[addr]; ok {
		return id, a.geo[id], false
	}
	id := uint32(len(a.geo))
	g := addrGeo{is4: addr.Is4()}
	if rec, ok := db.Lookup(addr); ok {
		g.asn = rec.ASN
		g.country = packCountry(rec.CountryCode)
		g.resolved = true
	}
	a.ids[addr] = id
	a.geo = append(a.geo, g)
	a.lastMark = append(a.lastMark, 0)
	return id, g, true
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
// fold target: its memory is O(distinct peers + distinct addresses +
// days), independent of how many day units are in flight, which is what
// lets the streaming campaign drop raw merged records as soon as a day
// has been folded and spilled.
type Dataset struct {
	// StartDay and EndDay bound the campaign ([StartDay, EndDay)).
	StartDay, EndDay int
	// Days holds one entry per campaign day.
	Days []*DayStats
	// Peers tracks every peer ever observed.
	Peers map[netdb.Hash]*PeerTrack

	// Unresolved counts the distinct observed addresses the geo database
	// could not resolve.
	Unresolved int

	// addrs interns every observed address with its memoized geo record.
	addrs *addrIntern
}

// NewDataset prepares an empty dataset for the given day range.
func NewDataset(startDay, endDay int) *Dataset {
	ds := &Dataset{
		StartDay: startDay,
		EndDay:   endDay,
		Peers:    make(map[netdb.Hash]*PeerTrack),
		addrs:    newAddrIntern(),
	}
	for d := startDay; d < endDay; d++ {
		ds.Days = append(ds.Days, newDayStats(d))
	}
	return ds
}

// day returns the DayStats for an absolute study day.
func (ds *Dataset) day(d int) *DayStats {
	return ds.Days[d-ds.StartDay]
}

// track records that the peer was observed on day and returns its
// PeerTrack (creating it on first observation). Because creation always
// carries the observing day, FirstDay is set at birth and a track with
// FirstDay unset cannot exist — the analyses may iterate ds.Peers
// without an "un-observed track" guard.
func (ds *Dataset) track(h netdb.Hash, day int) *PeerTrack {
	t, ok := ds.Peers[h]
	if !ok {
		t = &PeerTrack{
			Hash:     h,
			FirstDay: day,
			LastDay:  day,
			seen:     make([]uint64, (ds.EndDay-ds.StartDay+63)/64),
		}
		ds.Peers[h] = t
	}
	t.observe(day, ds.StartDay)
	return t
}

// TotalPeers returns the number of distinct peers observed.
func (ds *Dataset) TotalPeers() int { return len(ds.Peers) }

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
