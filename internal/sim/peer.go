package sim

import (
	"encoding/binary"
	"math/bits"
	"math/rand/v2"
	"net/netip"
	"slices"
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

// Peer is one simulated router's row: fixed-width fields only, no
// pointer, slice or string, so Network.Peers is one allocation the GC
// never scans. The structs come first, the 32-bit fields after them and
// the bytes last, so the row packs into 112 bytes (TestPeerLayout).
// What varies in length lives in the row's window of the network's word
// slab; the Network methods that read it take the peer's index.
type Peer struct {
	Profile   churn.Profile
	IPProfile churn.IPProfile
	ID        netdb.Hash

	Index int32
	// StartDay is the first study day the peer can appear (>= 0; peers
	// already in the network at study start have StartDay 0 with a
	// residual span).
	StartDay int32

	// window is where the peer's window starts in the network's word
	// slab, its chunk and offset (wordSlab.at). The window holds everything
	// of the peer that varies in length, in one pointer-free run of
	// words: the presence chain as a bitmap (bit i of the chain is day
	// StartDay+i, online when set), the AS pool, the address schedule
	// (scheduleWords per segment) and the same-day rotations
	// (rotationWords each). The counts below say where each section ends.
	window uint32

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

	// Country is the peer's home country, packed (geo.PackCountry).
	Country uint16

	Status    Status
	Class     netdb.BandwidthClass
	LegacyO   bool
	Floodfill bool
	// Reachable marks known-IP peers that accept inbound connections
	// (R flag); unknown-IP peers are always unreachable.
	Reachable bool
	// WellExposed peers are broadly visible to any single observer on any
	// day; the rest have a small per-day exposure, which produces the
	// logarithmic union curve of Figure 4. The exposure itself is a
	// column of the network (drawExposure), the one place the draw
	// reads it.
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

// windowOf returns peer idx's row and the words of the slab from where
// its window starts; the row's counts say how many of them are its.
func (n *Network) windowOf(idx int) (*Peer, []uint32) {
	p := &n.Peers[idx]
	return p, n.words.at(p.window)
}

// presence returns peer idx's presence bitmap.
func (n *Network) presence(idx int) []uint32 {
	p, w := n.windowOf(idx)
	return w[:bitmapWords(int(p.presenceDays))]
}

// asPool returns the autonomous systems peer idx draws its addresses from.
func (n *Network) asPool(idx int) []uint32 {
	p, w := n.windowOf(idx)
	at := bitmapWords(int(p.presenceDays))
	return w[at : at+int(p.asns)]
}

// schedule returns peer idx's address schedule, in fromDay order.
func (n *Network) schedule(idx int) []ipAssignment {
	p, w := n.windowOf(idx)
	at := bitmapWords(int(p.presenceDays)) + int(p.asns)
	return fromWords[ipAssignment](w[at:], int(p.segments))
}

// sameDayRotations returns the addresses and ASes that peer idx's
// same-day rotations replaced, in the order they were drawn.
func (n *Network) sameDayRotations(idx int) []rotation {
	p, w := n.windowOf(idx)
	at := bitmapWords(int(p.presenceDays)) + int(p.asns) + scheduleWords*int(p.segments)
	return fromWords[rotation](w[at:], int(p.rotations))
}

// ActiveOn reports whether peer idx is online on the given study day.
func (n *Network) ActiveOn(idx, day int) bool {
	p, w := n.windowOf(idx)
	i := day - int(p.StartDay)
	return i >= 0 && i < int(p.presenceDays) && w[i>>5]>>(i&31)&1 != 0
}

// FirstActiveDay returns the first study day peer idx is online, or -1.
func (n *Network) FirstActiveDay(idx int) int {
	for w, set := range n.presence(idx) {
		if set != 0 {
			return int(n.Peers[idx].StartDay) + w<<5 + bits.TrailingZeros32(set)
		}
	}
	return -1
}

// segmentOn returns the index of the address-schedule segment peer idx
// publishes on day — the last whose fromDay is at or before day, or the
// first if none is — or -1 for a peer that never publishes an address.
// It is the one walk of the schedule: AddrOnDay reads the segment it
// names.
func (n *Network) segmentOn(idx, day int) int {
	sched := n.schedule(idx)
	if len(sched) == 0 {
		return -1
	}
	i := 0
	for i+1 < len(sched) && int(sched[i+1].fromDay) <= day {
		i++
	}
	return i
}

// AddrOnDay returns peer idx's public IPv4 (and IPv6, if published) on
// the given study day. Both are zero for unknown-IP peers.
func (n *Network) AddrOnDay(idx, day int) (v4, v6 netip.Addr) {
	i := n.segmentOn(idx, day)
	if i < 0 {
		return netip.Addr{}, netip.Addr{}
	}
	return n.schedule(idx)[i].addrs()
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
	b.sched = append(b.sched, mkSeg(int(p.StartDay)))
	if p.IPProfile.Mode == churn.IPStatic {
		return
	}
	end := int(p.StartDay) + len(b.presence)
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

// ManyIPPeers returns how many peers publish more than limit distinct
// IPv4 addresses across their schedules and same-day rotations — Figure
// 8's tail at the paper's hourly capture resolution. A peer with no more
// segments and rotations together than limit cannot pass, so only the
// rest are deduplicated, in one scratch the call reuses.
func (n *Network) ManyIPPeers(limit int) int {
	var v4s []uint32
	many := 0
	for i := range n.Peers {
		if p := &n.Peers[i]; int(p.segments)+int(p.rotations) <= limit {
			continue
		}
		v4s = v4s[:0]
		for _, seg := range n.schedule(i) {
			v4s = append(v4s, binary.BigEndian.Uint32(seg.v4[:]))
		}
		for _, r := range n.sameDayRotations(i) {
			v4s = append(v4s, binary.BigEndian.Uint32(r.v4[:]))
		}
		slices.Sort(v4s)
		if len(slices.Compact(v4s)) > limit {
			many++
		}
	}
	return many
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

// caps returns the capacity flags the peer publishes: its class and
// flags, R when it is a reachable known-IP peer and U otherwise, and H
// when it is hidden or, within the day, toggles to hidden. They do not
// change from day to day.
func (p *Peer) caps() netdb.Caps {
	reachable := p.introducer()
	return netdb.Caps{
		Class:       p.Class,
		LegacyO:     p.LegacyO,
		Floodfill:   p.Floodfill,
		Reachable:   reachable,
		Unreachable: !reachable,
		Hidden:      p.Status == StatusHidden || p.Status == StatusToggling,
	}
}
