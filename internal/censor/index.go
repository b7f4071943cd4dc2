package censor

import (
	"encoding/binary"
	"math/bits"
	"net/netip"

	"github.com/i2pstudy/i2pstudy/internal/cache"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// AddrIndex interns every public address any peer publishes during the
// study into a dense ID table, built in one pass over the peers' address
// schedules. Blacklists, victim netDb views and blocking rates then become
// bitset operations over small integers instead of map[netip.Addr]bool
// rebuilds — the allocation hot spot of the original Section 6 sweeps. A
// sweep cell's blacklist is one AddrSet over the index, unioned from
// scratch (Sweep.Blacklist).
//
// The intern table is one flat open-addressed []int32 (ID+1 per slot, 0
// empty, at most half full), probed linearly from a fixed mix of the
// address's 16 bytes; a slot matches only when addrs[ID] == the address,
// so netip's equality holds (an IPv4 is not its v4-mapped IPv6 form, a
// zoned address is not its unzoned one). The hash is fixed and unkeyed on
// purpose: the table is filled once from the immutable network and no
// request ever inserts into it, so a daemon client can probe it (the
// service blacklist) but never shape it. A table that a client fills —
// the service's limiter — needs a keyed hash instead.
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
	// table is the intern table, kept for IDOf lookups (the service
	// blacklist maps reported addresses back onto the IDs). Its length is
	// a power of two; slots hold ID+1, 0 where empty.
	table []int32
	// segs holds, per peer index, the FromDay-ordered schedule with
	// interned address IDs; nil for peers that never publish an address.
	// Every peer's slice is carved from one backing array.
	segs [][]idSeg
	// dayIDs memoizes dayColumn, one column per study day.
	dayIDs *cache.DayMemo[[]dayID]
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

// NewAddrIndex builds the index for a network. IDs are assigned in first
// occurrence order: peers ascending, each schedule in FromDay order, v4
// before v6.
func NewAddrIndex(n *sim.Network) *AddrIndex {
	// Count segments and addresses first: the segment array, the table
	// and its reverse are sized up front (addresses an upper bound — an
	// address two segments share is counted twice) instead of regrowing
	// on the way to the ≈ 160 K addresses of a paper-scale study.
	segs, addrs := 0, 0
	for _, p := range n.Peers {
		k := p.NumAddrSegments()
		segs += k
		for j := range k {
			_, v4, v6 := p.AddrSegmentAt(j)
			if v4.IsValid() {
				addrs++
			}
			if v6.IsValid() {
				addrs++
			}
		}
	}
	size := 1
	for size < 2*addrs {
		size <<= 1
	}
	ix := &AddrIndex{
		net:    n,
		addrs:  make([]netip.Addr, 0, addrs),
		table:  make([]int32, size),
		segs:   make([][]idSeg, len(n.Peers)),
		dayIDs: cache.NewDayMemo[[]dayID](n.Days(), dayIDsRing),
	}
	free := make([]idSeg, segs)
	for i, p := range n.Peers {
		k := p.NumAddrSegments()
		if k == 0 {
			continue
		}
		own := free[:k:k]
		free = free[k:]
		for j := range own {
			from, v4, v6 := p.AddrSegmentAt(j)
			own[j] = idSeg{fromDay: from, v4: ix.intern(v4), v6: ix.intern(v6)}
		}
		ix.segs[i] = own
	}
	return ix
}

// intern returns a's ID, assigning the next one on first sight, or -1 for
// the zero Addr. Only NewAddrIndex calls it: the table never grows after.
func (ix *AddrIndex) intern(a netip.Addr) int32 {
	if !a.IsValid() {
		return -1
	}
	slot := ix.slot(a)
	if id := ix.table[slot]; id != 0 {
		return id - 1
	}
	id := int32(len(ix.addrs))
	ix.table[slot] = id + 1
	ix.addrs = append(ix.addrs, a)
	return id
}

// slot returns the table position holding a's ID, or the empty position
// where a's probe sequence ends. The table is at most half full, so the
// probe always ends.
func (ix *AddrIndex) slot(a netip.Addr) int {
	mask := len(ix.table) - 1
	for i := int(addrHash(a)) & mask; ; i = (i + 1) & mask {
		if id := ix.table[i]; id == 0 || ix.addrs[id-1] == a {
			return i
		}
	}
}

// addrHash is the intern table's probe hash: splitmix64's finalizer over
// the address's 16 bytes. It is the same for an IPv4 and its v4-mapped
// IPv6 form, and ignores zones; slot's equality check tells those apart.
func addrHash(a netip.Addr) uint64 {
	b := a.As16()
	h := binary.LittleEndian.Uint64(b[:8])*0x9E3779B97F4A7C15 ^ binary.LittleEndian.Uint64(b[8:])
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// NumAddrs returns the size of the interned address table.
func (ix *AddrIndex) NumAddrs() int { return len(ix.addrs) }

// IDOf resolves an address to its interned ID, -1 when the address was
// never published during the study. The service's operator blacklist
// uses this to map reported addresses onto AddrSets over the same table
// the censor sweeps block against. It only probes: the table is never
// written after NewAddrIndex.
func (ix *AddrIndex) IDOf(a netip.Addr) int32 {
	if !a.IsValid() {
		return -1
	}
	return ix.table[ix.slot(a)] - 1
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

// PeerBlocked reports whether peer idx's address on day — either of its
// v4 and v6 — is on the blacklist bl. Peers without a published address
// are never blocked.
func (ix *AddrIndex) PeerBlocked(bl *AddrSet, idx, day int) bool {
	v4, v6 := ix.PeerIDs(idx, day)
	return bl.Has(v4) || bl.Has(v6)
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
		col[j].v4, col[j].v6 = ix.PeerIDs(int(idx), day)
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
