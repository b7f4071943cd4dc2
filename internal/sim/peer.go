package sim

import (
	"math/bits"
	"math/rand/v2"
	"net/netip"
	"time"
	"unsafe"

	"github.com/i2pstudy/i2pstudy/internal/churn"
	"github.com/i2pstudy/i2pstudy/internal/netdb"
)

// Status is a peer's address-publication behaviour, which drives the
// paper's Figure 6 classification (Section 5.1).
type Status uint8

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

// ipAssignment is one segment of a peer's IP schedule, stored as raw
// bytes so a schedule holds nothing the GC must scan. An all-zero address
// means none: geo never generates 0.0.0.0 (its hosts start at .0.1) or ::
// (its IPv6 space is 2a10::/16), so the zero value is free as a sentinel.
type ipAssignment struct {
	fromDay int32 // study day the address becomes active
	asn     uint32
	v4      [4]byte
	v6      [16]byte // zero unless the peer publishes IPv6
}

// rotation is one same-day address change the daily schedule collapses:
// the IPv4 the peer gave up within the day and the AS it was in.
type rotation struct {
	v4  [4]byte
	asn uint32
}

// addr4 rebuilds an IPv4 stored as bytes, the zero Addr for zero bytes.
// geo makes its addresses with AddrFrom4, so the value is == the one drawn.
func addr4(b [4]byte) netip.Addr {
	if b == ([4]byte{}) {
		return netip.Addr{}
	}
	return netip.AddrFrom4(b)
}

// addrs returns the segment's IPv4 and IPv6, each zero when absent.
func (s *ipAssignment) addrs() (v4, v6 netip.Addr) {
	if s.v6 != ([16]byte{}) {
		v6 = netip.AddrFrom16(s.v6)
	}
	return addr4(s.v4), v6
}

// Peer is one simulated router. The word-sized fields come first and the
// narrow ones after them, so the record packs into 160 bytes
// (TestPeerRecordSize).
type Peer struct {
	Index int
	ID    netdb.Hash

	Profile   churn.Profile
	IPProfile churn.IPProfile

	Country string

	// StartDay is the first study day the peer can appear (>= 0; peers
	// already in the network at study start have StartDay 0 with a
	// residual span).
	StartDay int
	// Exposure is the peer's base per-day observability in [0, 1].
	Exposure float64

	// window holds everything of the peer that varies in length, in one
	// pointer-free run of words carved from a slab: the presence chain as
	// a bitmap (bit i of the chain is day StartDay+i, online when set),
	// the AS pool, the address schedule (scheduleWords per segment) and
	// the same-day rotations (rotationWords each). The counts below say
	// where each section ends.
	window []uint32

	RateKBps int32

	// presenceDays is the length of the presence chain, the days from
	// StartDay it covers.
	presenceDays int32
	// segments counts the address schedule, non-zero only for
	// StatusKnownIP peers.
	segments int32
	// rotations counts the additional same-day rotations the daily
	// schedule collapses. Heavy rotators change addresses several times
	// per day; hourly captures (the paper's resolution) see them all,
	// which is how the >100-address tail of Figure 8 arises.
	rotations int32

	Status    Status
	Class     netdb.BandwidthClass
	LegacyO   bool
	Floodfill bool
	// Reachable marks known-IP peers that accept inbound connections
	// (R flag); unknown-IP peers are always unreachable.
	Reachable bool
	// WellExposed peers are broadly visible to any single observer on any
	// day; the rest have a small per-day exposure, which produces the
	// logarithmic union curve of Figure 4.
	WellExposed bool

	asns uint8 // the AS pool's length; churn caps a fanout at 39
}

// Words a schedule segment and a same-day rotation take in a window.
const (
	scheduleWords = int(unsafe.Sizeof(ipAssignment{}) / 4)
	rotationWords = int(unsafe.Sizeof(rotation{}) / 4)
)

// bitmapWords returns how many words a presence chain of days days takes.
func bitmapWords(days int) int { return (days + 31) / 32 }

// asWords views s, a slice of a pointer-free record made of 4-byte-aligned
// words, as those words.
func asWords[T ipAssignment | rotation](s []T) []uint32 {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(s[0]))/4)
}

// fromWords views n records of type T stored at the start of w.
func fromWords[T ipAssignment | rotation](w []uint32, n int) []T {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(w))), n)
}

// presence returns the window's presence bitmap.
func (p *Peer) presence() []uint32 { return p.window[:bitmapWords(int(p.presenceDays))] }

// present reports whether the peer is online on day StartDay+i of its
// chain; i must be in [0, presenceDays).
func (p *Peer) present(i int) bool { return p.window[i>>5]>>(i&31)&1 != 0 }

// asPool returns the autonomous systems the peer draws its addresses from.
func (p *Peer) asPool() []uint32 {
	at := bitmapWords(int(p.presenceDays))
	return p.window[at : at+int(p.asns)]
}

// schedule returns the peer's address schedule, in fromDay order.
func (p *Peer) schedule() []ipAssignment {
	at := bitmapWords(int(p.presenceDays)) + int(p.asns)
	return fromWords[ipAssignment](p.window[at:], int(p.segments))
}

// sameDayRotations returns the addresses and ASes that same-day rotations
// replaced, in the order they were drawn.
func (p *Peer) sameDayRotations() []rotation {
	at := bitmapWords(int(p.presenceDays)) + int(p.asns) + scheduleWords*int(p.segments)
	return fromWords[rotation](p.window[at:], int(p.rotations))
}

// ActiveOn reports whether the peer is online on the given study day.
func (p *Peer) ActiveOn(day int) bool {
	idx := day - p.StartDay
	return idx >= 0 && idx < int(p.presenceDays) && p.present(idx)
}

// FirstActiveDay returns the first study day the peer is online, or -1.
func (p *Peer) FirstActiveDay() int {
	for w, set := range p.presence() {
		if set != 0 {
			return p.StartDay + w<<5 + bits.TrailingZeros32(set)
		}
	}
	return -1
}

// segmentOn returns the index of the address-schedule segment the peer
// publishes on day — the last whose fromDay is at or before day, or the
// first if none is — or -1 for a peer that never publishes an address.
// It is the one walk of the schedule: AddrOnDay reads the segment it
// names.
func (p *Peer) segmentOn(day int) int {
	sched := p.schedule()
	if len(sched) == 0 {
		return -1
	}
	i := 0
	for i+1 < len(sched) && int(sched[i+1].fromDay) <= day {
		i++
	}
	return i
}

// AddrOnDay returns the peer's public IPv4 (and IPv6, if published) on the
// given study day. Both are zero for unknown-IP peers.
func (p *Peer) AddrOnDay(day int) (v4, v6 netip.Addr) {
	i := p.segmentOn(day)
	if i < 0 {
		return netip.Addr{}, netip.Addr{}
	}
	return p.schedule()[i].addrs()
}

// introducer reports whether the peer serves as an introducer for
// firewalled peers on the days it is online: known-IP and reachable.
func (p *Peer) introducer() bool { return p.Status == StatusKnownIP && p.Reachable }

// TunnelEligible reports whether other peers would select this peer as a
// tunnel hop: reachable, publishing an address, with at least M bandwidth.
func (p *Peer) TunnelEligible() bool {
	return p.Status == StatusKnownIP && p.Reachable && p.Class.AtLeast(netdb.ClassM)
}

// drawIPSchedule draws the address assignments of a known-IP peer across
// its active window, using its churn IP profile and the AS pool in b, into
// b.sched, and the addresses and ASes that same-day rotations replaced
// into b.rots.
func (p *Peer) drawIPSchedule(horizonDays int, b *builder) {
	b.sched, b.rots = b.sched[:0], b.rots[:0]
	if p.Status != StatusKnownIP {
		return
	}
	rng := b.rng
	mkSeg := func(day int) ipAssignment {
		as := b.poolAS[rng.IntN(len(b.poolAS))]
		seg := ipAssignment{fromDay: int32(day), asn: as.ASN, v4: as.RandomIPv4(rng).As4()}
		if p.IPProfile.IPv6 {
			seg.v6 = as.RandomIPv6(rng).As16()
		}
		return seg
	}
	b.sched = append(b.sched, mkSeg(p.StartDay))
	if p.IPProfile.Mode == churn.IPStatic {
		return
	}
	end := p.StartDay + len(b.presence)
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
		if last := &b.sched[len(b.sched)-1]; day <= int(last.fromDay) {
			// Multiple rotations within one day: the daily schedule keeps
			// the last address, but the earlier one was still observable
			// by hourly captures, so record it.
			b.rots = append(b.rots, rotation{v4: last.v4, asn: last.asn})
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
	sched, rots := p.schedule(), p.sameDayRotations()
	seen := make(map[[4]byte]bool, len(sched)+len(rots))
	for _, seg := range sched {
		seen[seg.v4] = true
	}
	for _, r := range rots {
		seen[r.v4] = true
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
			if pool.v4[pick] == ([4]byte{}) {
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
// day's pool and their identities through peers (Network.Peers).
func (p *Peer) buildInfo(day int, dayTime time.Time, peers []*Peer, pool introducerPool, d Draw) *netdb.RouterInfo {
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
					Hash: peers[pool.peers[in.Pick]].ID,
					Tag:  in.Tag,
					Addr: netip.AddrFrom4(pool.v4[in.Pick]),
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
