package censor

import (
	"math/bits"
	"net/netip"
	"sync"

	"github.com/i2pstudy/i2pstudy/internal/cache"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// AddrIndex interns every public address any peer publishes during the
// study into a dense ID table, built in one pass over the peers' address
// schedules. Blacklists, victim netDb views and blocking rates then become
// bitset operations over small integers instead of map[netip.Addr]bool
// rebuilds — the allocation hot spot of the original Section 6 sweeps.
//
// An AddrIndex is immutable after NewAddrIndex returns and safe for
// unbounded concurrent use, matching sim.Network's concurrency contract.
// The per-day ID columns (dayColumn) are part of the index: built lazily,
// at most once per day, pure in (network, day), and — because the index
// is the network's sim.Derive slot — shared by every censor and sweep on
// the network, collected with it, and epoched with it should the network
// ever grow a mutating API.
type AddrIndex struct {
	net *sim.Network
	// addrs maps ID -> address (the reverse of the intern table).
	addrs []netip.Addr
	// ids is the intern table itself, kept for IDOf lookups (the service
	// blacklist maps reported addresses back onto the table).
	ids map[netip.Addr]int32
	// segs holds, per peer index, the FromDay-ordered schedule with
	// interned address IDs; nil for peers that never publish an address.
	segs [][]idSeg
	// dayIDs memoizes dayColumn, one column per study day.
	dayIDs *cache.DayMemo[[]dayID]

	// wcPool recycles WindowCounters across sweep rows and
	// BlockingSeries calls (see NewWindowCounter/ReleaseWindowCounter).
	// The pool does not make the index mutable in any observable way:
	// counters are private per row while in use and zeroed on release.
	wcPool sync.Pool
}

// idSeg is one interned segment of a peer's address schedule. IDs are -1
// when the peer publishes no such address in the segment.
type idSeg struct {
	fromDay int
	v4, v6  int32
}

// dayID is one position of a day's ID column: the address IDs the peer at
// that position of ActivePeers(day) publishes on the day, -1 where absent.
type dayID struct{ v4, v6 int32 }

// NewAddrIndex builds the index for a network.
func NewAddrIndex(n *sim.Network) *AddrIndex {
	// Read every schedule once and count its addresses first: the table
	// and its reverse are sized up front (an upper bound — an address two
	// segments share is counted twice) instead of regrowing by doubling
	// on the way to the ≈ 160 K addresses of a paper-scale study.
	scheds := make([][]sim.AddrSegment, len(n.Peers))
	addrs := 0
	for i, p := range n.Peers {
		if p.Status != sim.StatusKnownIP {
			continue
		}
		scheds[i] = p.AddrSchedule()
		for _, seg := range scheds[i] {
			if seg.V4.IsValid() {
				addrs++
			}
			if seg.V6.IsValid() {
				addrs++
			}
		}
	}
	ix := &AddrIndex{
		net:    n,
		addrs:  make([]netip.Addr, 0, addrs),
		ids:    make(map[netip.Addr]int32, addrs),
		segs:   make([][]idSeg, len(n.Peers)),
		dayIDs: cache.NewDayMemo[[]dayID](n.Days(), dayIDsRing),
	}
	intern := func(a netip.Addr) int32 {
		if !a.IsValid() {
			return -1
		}
		if id, ok := ix.ids[a]; ok {
			return id
		}
		id := int32(len(ix.addrs))
		ix.ids[a] = id
		ix.addrs = append(ix.addrs, a)
		return id
	}
	for i, sched := range scheds {
		if len(sched) == 0 {
			continue
		}
		segs := make([]idSeg, len(sched))
		for j, seg := range sched {
			segs[j] = idSeg{fromDay: seg.FromDay, v4: intern(seg.V4), v6: intern(seg.V6)}
		}
		ix.segs[i] = segs
	}
	return ix
}

// NumAddrs returns the size of the interned address table.
func (ix *AddrIndex) NumAddrs() int { return len(ix.addrs) }

// Addr returns the address behind an ID.
func (ix *AddrIndex) Addr(id int32) netip.Addr { return ix.addrs[id] }

// IDOf resolves an address to its interned ID, -1 when the address was
// never published during the study. The service's operator blacklist
// uses this to map reported addresses onto AddrSets over the same table
// the censor sweeps block against.
func (ix *AddrIndex) IDOf(a netip.Addr) int32 {
	if id, ok := ix.ids[a]; ok {
		return id
	}
	return -1
}

// PeerIDs returns the IDs of the addresses peer idx publishes on day, or
// -1 where absent. It mirrors Peer.AddrOnDay exactly, including the edge
// case that days before the first segment report the first segment's
// addresses.
func (ix *AddrIndex) PeerIDs(idx, day int) (v4, v6 int32) {
	segs := ix.segs[idx]
	if len(segs) == 0 {
		return -1, -1
	}
	cur := segs[0]
	for _, seg := range segs[1:] {
		if seg.fromDay > day {
			break
		}
		cur = seg
	}
	return cur.v4, cur.v6
}

// dayColumn returns the day's ID column, aligned with the network's
// ActivePeers(day): dayColumn(day)[j] is PeerIDs(ActivePeers(day)[j], day).
// A monitoring router's capture maps the positions sim.Observer.DrawDay
// keeps straight through it — one sequential 8-byte read per sighting
// instead of a schedule walk behind a per-peer pointer. The column is
// shared and must not be modified.
func (ix *AddrIndex) dayColumn(day int) []dayID {
	return ix.dayIDs.Get(day, ix.buildDayColumn)
}

// buildDayColumn is the compute behind dayColumn.
func (ix *AddrIndex) buildDayColumn(day int) []dayID {
	active := ix.net.ActivePeers(day)
	col := make([]dayID, len(active))
	for j, idx := range active {
		col[j].v4, col[j].v6 = ix.PeerIDs(idx, day)
	}
	return col
}

// AddrSet is a bitset over an AddrIndex's address table with a cardinality
// counter — the allocation-free replacement for map[netip.Addr]bool in the
// blacklist and victim-netDb paths. The zero value is not usable; obtain
// sets from AddrIndex.NewSet. AddrSets are not safe for concurrent
// mutation; sweep cells each build their own.
type AddrSet struct {
	words []uint64
	count int
}

// NewSet returns an empty set sized for the index's address table.
func (ix *AddrIndex) NewSet() *AddrSet {
	return &AddrSet{words: make([]uint64, (len(ix.addrs)+63)/64)}
}

// Add inserts id and reports whether it was newly added. Negative IDs
// (absent addresses) are ignored.
func (s *AddrSet) Add(id int32) bool {
	if id < 0 {
		return false
	}
	w, b := id>>6, uint64(1)<<(id&63)
	if s.words[w]&b != 0 {
		return false
	}
	s.words[w] |= b
	s.count++
	return true
}

// AddAll unions ids into the set.
func (s *AddrSet) AddAll(ids []int32) {
	for _, id := range ids {
		s.Add(id)
	}
}

// Remove deletes id and reports whether it was present. Negative IDs are
// never members.
func (s *AddrSet) Remove(id int32) bool {
	if id < 0 {
		return false
	}
	w, b := id>>6, uint64(1)<<(id&63)
	if s.words[w]&b == 0 {
		return false
	}
	s.words[w] &^= b
	s.count--
	return true
}

// Has reports membership; negative IDs are never members.
func (s *AddrSet) Has(id int32) bool {
	return id >= 0 && s.words[id>>6]&(uint64(1)<<(id&63)) != 0
}

// Clone returns an independent copy of the set. Cursor.BlockedPeerFunc
// snapshots the live rolling set this way, so predicates stay valid
// after their row slides on; one O(words) copy per cell is still far
// cheaper than the from-scratch union it replaces.
func (s *AddrSet) Clone() *AddrSet {
	return &AddrSet{words: append([]uint64(nil), s.words...), count: s.count}
}

// Clear empties the set in place, keeping its capacity — the reuse
// primitive behind WindowCounter.Reset.
func (s *AddrSet) Clear() {
	clear(s.words)
	s.count = 0
}

// Len returns the number of addresses in the set.
func (s *AddrSet) Len() int { return s.count }

// IntersectCount returns |s ∩ t| for two sets over the same index.
func (s *AddrSet) IntersectCount(t *AddrSet) int {
	n := 0
	for i, w := range s.words {
		n += bits.OnesCount64(w & t.words[i])
	}
	return n
}

// ForEach calls fn for every ID in the set in ascending order.
func (s *AddrSet) ForEach(fn func(id int32)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(int32(wi<<6 + b))
			w &^= 1 << b
		}
	}
}

// indexKey is the index's sim.Derive key.
type indexKey struct{}

// IndexFor returns the network's address index. It is network-owned
// (sim.Derive): built at most once per network, shared by every censor,
// victim, sweep and distrib blacklist on that network — the censorship
// experiments run concurrently on one study network (core.Study.RunAll)
// and must not each re-intern the address table — and collected with it.
func IndexFor(n *sim.Network) *AddrIndex {
	return sim.Derive(n, indexKey{}, func() *AddrIndex { return NewAddrIndex(n) })
}
