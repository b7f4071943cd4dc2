package sim

import (
	"math/bits"
	"math/rand/v2"
	"net/netip"
	"time"

	"github.com/i2pstudy/i2pstudy/internal/churn"
	"github.com/i2pstudy/i2pstudy/internal/geo"
	"github.com/i2pstudy/i2pstudy/internal/netdb"
)

// Status is a peer's address-publication behaviour, which drives the
// paper's Figure 6 classification (Section 5.1).
type Status int

// Peer statuses.
const (
	// StatusKnownIP peers publish a public IP in their RouterInfo.
	StatusKnownIP Status = iota
	// StatusFirewalled peers publish introducers instead of an IP.
	StatusFirewalled
	// StatusHidden peers publish neither (H capacity flag).
	StatusHidden
	// StatusToggling peers flip between firewalled and hidden within a
	// day — the paper's 2.6K "overlapping" group.
	StatusToggling
)

func (s Status) String() string {
	switch s {
	case StatusKnownIP:
		return "known-ip"
	case StatusFirewalled:
		return "firewalled"
	case StatusHidden:
		return "hidden"
	case StatusToggling:
		return "toggling"
	default:
		return "invalid"
	}
}

// ipAssignment is one segment of a peer's IP schedule.
type ipAssignment struct {
	fromDay int // study day the address becomes active
	asn     uint32
	addr    netip.Addr
	v6      netip.Addr // zero unless the peer publishes IPv6
}

// Peer is one simulated router.
type Peer struct {
	Index int
	ID    netdb.Hash

	Profile   churn.Profile
	IPProfile churn.IPProfile
	Status    Status

	Country string
	ASPool  []uint32

	Class     netdb.BandwidthClass
	LegacyO   bool
	RateKBps  int
	Floodfill bool
	// Reachable marks known-IP peers that accept inbound connections
	// (R flag); unknown-IP peers are always unreachable.
	Reachable bool

	// StartDay is the first study day the peer can appear (>= 0; peers
	// already in the network at study start have StartDay 0 with a
	// residual span).
	StartDay int
	// Presence holds one entry per day from StartDay; true means the peer
	// was online at some point that day.
	Presence []bool

	// WellExposed peers are broadly visible to any single observer on any
	// day; the rest have a small per-day exposure, which produces the
	// logarithmic union curve of Figure 4.
	WellExposed bool
	// Exposure is the peer's base per-day observability in [0, 1].
	Exposure float64

	// ipSchedule is non-empty only for StatusKnownIP peers.
	ipSchedule []ipAssignment
	// extraIPs and extraASNs record additional same-day rotations that
	// the daily schedule collapses. Heavy rotators change addresses
	// several times per day; hourly captures (the paper's resolution) see
	// them all, which is how the >100-address tail of Figure 8 arises.
	extraIPs  []netip.Addr
	extraASNs []uint32
}

// ActiveOn reports whether the peer is online on the given study day.
func (p *Peer) ActiveOn(day int) bool {
	idx := day - p.StartDay
	return idx >= 0 && idx < len(p.Presence) && p.Presence[idx]
}

// FirstActiveDay returns the first study day the peer is online, or -1.
func (p *Peer) FirstActiveDay() int {
	for i, on := range p.Presence {
		if on {
			return p.StartDay + i
		}
	}
	return -1
}

// SegmentOn returns the index of the address-schedule segment the peer
// publishes on day — the last whose FromDay is at or before day, or the
// first if none is — or -1 for a peer that never publishes an address.
// The index never falls as day grows, so a caller folding days in
// ascending order may keep what it derived from a segment's addresses
// until the index moves. It is the one walk of the schedule: AddrOnDay
// and ASNOnDay read the segment it names.
func (p *Peer) SegmentOn(day int) int {
	if len(p.ipSchedule) == 0 {
		return -1
	}
	i := 0
	for i+1 < len(p.ipSchedule) && p.ipSchedule[i+1].fromDay <= day {
		i++
	}
	return i
}

// segment returns schedule segment i, or the zero segment for -1.
func (p *Peer) segment(i int) ipAssignment {
	if i < 0 {
		return ipAssignment{}
	}
	return p.ipSchedule[i]
}

// AddrOnDay returns the peer's public IPv4 (and IPv6, if published) on the
// given study day. Both are zero for unknown-IP peers.
func (p *Peer) AddrOnDay(day int) (v4, v6 netip.Addr) {
	s := p.segment(p.SegmentOn(day))
	return s.addr, s.v6
}

// AddrSegment is one run of a peer's published address schedule: from
// FromDay (inclusive) until the next segment's FromDay, the peer publishes
// V4 (and V6 when valid). Mirrors what AddrOnDay consults day by day.
type AddrSegment struct {
	FromDay int
	V4, V6  netip.Addr
}

// AddrSchedule returns the peer's daily address schedule in FromDay order,
// or nil for peers that never publish an address. It lets analyses intern
// every address the peer will ever publish in a single pass (the censor's
// incremental blacklist index) instead of probing AddrOnDay per day.
func (p *Peer) AddrSchedule() []AddrSegment {
	if len(p.ipSchedule) == 0 {
		return nil
	}
	out := make([]AddrSegment, len(p.ipSchedule))
	for i, seg := range p.ipSchedule {
		out[i] = AddrSegment{FromDay: seg.fromDay, V4: seg.addr, V6: seg.v6}
	}
	return out
}

// ASNOnDay returns the autonomous system of the peer's address on day, or
// zero for unknown-IP peers.
func (p *Peer) ASNOnDay(day int) uint32 { return p.segment(p.SegmentOn(day)).asn }

// introducer reports whether the peer serves as an introducer for
// firewalled peers on the days it is online: known-IP and reachable.
func (p *Peer) introducer() bool { return p.Status == StatusKnownIP && p.Reachable }

// TunnelEligible reports whether other peers would select this peer as a
// tunnel hop: reachable, publishing an address, with at least M bandwidth.
func (p *Peer) TunnelEligible() bool {
	return p.Status == StatusKnownIP && p.Reachable && p.Class.AtLeast(netdb.ClassM)
}

// buildIPSchedule precomputes the peer's address assignments across its
// active window using its churn IP profile and the geo allocator. It
// draws them into b's scratch and keeps exact-size copies.
func (p *Peer) buildIPSchedule(db *geo.DB, horizonDays int, b *builder) {
	if p.Status != StatusKnownIP {
		return
	}
	b.sched, b.extraIPs, b.extraASNs = b.sched[:0], b.extraIPs[:0], b.extraASNs[:0]
	p.drawIPSchedule(db, horizonDays, b)
	p.ipSchedule = b.segs.clone(b.sched)
	p.extraIPs = b.addrs.clone(b.extraIPs)
	p.extraASNs = b.asns.clone(b.extraASNs)
}

// drawIPSchedule appends the peer's schedule segments to b.sched, and
// the addresses and ASes that same-day rotations replaced to b.extraIPs
// and b.extraASNs.
func (p *Peer) drawIPSchedule(db *geo.DB, horizonDays int, b *builder) {
	rng := b.rng
	mkSeg := func(day int) ipAssignment {
		asn := p.ASPool[rng.IntN(len(p.ASPool))]
		seg := ipAssignment{fromDay: day, asn: asn, addr: db.RandomIPv4(asn, rng)}
		if p.IPProfile.IPv6 {
			seg.v6 = db.RandomIPv6(asn, rng)
		}
		return seg
	}
	b.sched = append(b.sched, mkSeg(p.StartDay))
	if p.IPProfile.Mode == churn.IPStatic {
		return
	}
	end := p.StartDay + len(p.Presence)
	if end > horizonDays {
		end = horizonDays
	}
	clock := float64(p.StartDay)
	for {
		clock += p.IPProfile.NextRotationDays(rng)
		day := int(clock)
		if day >= end {
			return
		}
		if last := &b.sched[len(b.sched)-1]; day <= last.fromDay {
			// Multiple rotations within one day: the daily schedule keeps
			// the last address, but the earlier one was still observable
			// by hourly captures, so record it.
			b.extraIPs = append(b.extraIPs, last.addr)
			b.extraASNs = append(b.extraASNs, last.asn)
			*last = mkSeg(day)
			continue
		}
		b.sched = append(b.sched, mkSeg(day))
	}
}

// UniqueIPs returns the number of distinct IPv4 addresses across the
// peer's schedule, including same-day rotations — Figure 8's per-peer
// statistic at the paper's hourly capture resolution.
func (p *Peer) UniqueIPs() int {
	seen := make(map[netip.Addr]bool, len(p.ipSchedule)+len(p.extraIPs))
	for _, seg := range p.ipSchedule {
		seen[seg.addr] = true
	}
	for _, a := range p.extraIPs {
		seen[a] = true
	}
	return len(seen)
}

// UniqueASNs returns the number of distinct autonomous systems across the
// peer's schedule — Figure 12's per-peer statistic.
func (p *Peer) UniqueASNs() int {
	seen := make(map[uint32]bool, 4)
	for _, seg := range p.ipSchedule {
		seen[seg.asn] = true
	}
	for _, a := range p.extraASNs {
		seen[a] = true
	}
	return len(seen)
}

// IntroDraw is one introducer a firewalled peer advertises, as drawn: the
// position picked in the day's introducer pool, the introduction tag and
// the contact port. The introducer's identity and address are the pool's
// to resolve (buildInfo), so a draw is plain integers.
type IntroDraw struct {
	Pick uint32 // index into the day's introducer pool
	Tag  uint32
	Port uint16
}

// Draw is everything a RouterInfo takes from the materialization stream:
// the published port of a known-IP peer, or the introducers a firewalled
// peer advertises. Every introducer in Intros[:N] publishes a valid IPv4
// on the day of the draw; a pick that does not is dropped by drawInfo.
type Draw struct {
	Port   uint16
	N      uint8 // introducers drawn into Intros
	Intros [3]IntroDraw
}

// Sighting is one captured record before it is materialized: which peer,
// and what its RouterInfo took from the stream. With the immutable
// network and the day it is a complete description of the record —
// Network.RouterInfo rebuilds it bit for bit — so it is what the campaign
// folds from and checkpoints.
type Sighting struct {
	Peer int32 // index into Network.Peers
	Draw
}

// I2P picks its transport port from 9000–31000; drawPort draws one.
const minPort, maxPort = 9000, 31000

func drawPort(pcg *rand.PCG) uint16 { return uint16(minPort + uint64n(pcg, maxPort-minPort+1)) }

// uint64n reduces pcg's next values to [0, n) exactly as rand.Rand.IntN
// does — Lemire's multiply-high, a mask for a power of two, and the
// rejection loop below the threshold — so it returns the same value and
// leaves pcg where IntN over rand.New(pcg) would, without the call through
// the Source interface. (Rand's 32-bit path reproduces this sequence too.)
// n must be positive.
func uint64n(pcg *rand.PCG, n uint64) uint64 {
	if n&(n-1) == 0 {
		return pcg.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(pcg.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(pcg.Uint64(), n)
		}
	}
	return hi
}

// drawInfo consumes one sighted peer's share of the materialization
// stream, keyed by its affinity class (Network.drawClass) rather than the
// scattered Peer: a known-IP peer (relay or creator) draws its port, a
// firewalled or toggling one its introducers, a hidden one nothing. The
// call sequence on pcg is the stream's contract: a record is bit-for-bit
// what it always was only while every peer ahead of it in the stream,
// built or discarded, has drawn exactly this.
func drawInfo(class uint8, pool introducerPool, pcg *rand.PCG) (d Draw) {
	switch class {
	case affinityRelay, affinityCreator:
		d.Port = drawPort(pcg)
	case affinityFirewalled:
		n := 1 + uint64n(pcg, 3)
		for i := uint64(0); i < n && len(pool.peers) > 0; i++ {
			pick := uint64n(pcg, uint64(len(pool.peers)))
			if !pool.v4[pick].IsValid() {
				continue
			}
			d.Intros[d.N] = IntroDraw{
				Pick: uint32(pick),
				Tag:  uint32(pcg.Uint64() >> 32), // rand.Rand.Uint32
				Port: drawPort(pcg),
			}
			d.N++
		}
	}
	return d
}

// buildInfo materializes the peer's RouterInfo as published on the given
// study day from its draw, resolving the drawn introducers against the
// day's pool.
func (p *Peer) buildInfo(day int, dayTime time.Time, pool introducerPool, d Draw) *netdb.RouterInfo {
	reachable := p.Status == StatusKnownIP && p.Reachable
	ri := &netdb.RouterInfo{
		Identity:  p.ID,
		Published: dayTime,
		Version:   "0.9.34",
		Caps: netdb.Caps{
			Class:       p.Class,
			LegacyO:     p.LegacyO,
			Floodfill:   p.Floodfill,
			Reachable:   reachable,
			Unreachable: !reachable,
		},
	}
	switch p.Status {
	case StatusKnownIP:
		v4, v6 := p.AddrOnDay(day)
		n := 0
		if v4.IsValid() {
			n += 2
		}
		if v6.IsValid() {
			n++
		}
		if n == 0 {
			break
		}
		ri.Addresses = make([]netdb.RouterAddress, 0, n)
		if v4.IsValid() {
			ri.Addresses = append(ri.Addresses,
				netdb.RouterAddress{Transport: netdb.TransportNTCP, Addr: v4, Port: d.Port},
				netdb.RouterAddress{Transport: netdb.TransportSSU, Addr: v4, Port: d.Port})
		}
		if v6.IsValid() {
			ri.Addresses = append(ri.Addresses,
				netdb.RouterAddress{Transport: netdb.TransportNTCP, Addr: v6, Port: d.Port})
		}
	case StatusFirewalled, StatusToggling:
		// A peer whose every pick was dropped publishes a nil list, as it
		// did when the list was appended to.
		var intros []netdb.Introducer
		if d.N > 0 {
			intros = make([]netdb.Introducer, d.N)
			for i, in := range d.Intros[:d.N] {
				intros[i] = netdb.Introducer{
					Hash: pool.peers[in.Pick].ID,
					Tag:  in.Tag,
					Addr: pool.v4[in.Pick],
					Port: in.Port,
				}
			}
		}
		ri.Addresses = []netdb.RouterAddress{{Transport: netdb.TransportSSU, Introducers: intros}}
		// Within the day a toggling peer also appeared with hidden config;
		// the H flag records it, putting the peer in both groups.
		ri.Caps.Hidden = p.Status == StatusToggling
	case StatusHidden:
		ri.Caps.Hidden = true
	}
	return ri
}
