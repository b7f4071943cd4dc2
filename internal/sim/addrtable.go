package sim

import (
	"encoding/binary"
	"net/netip"
)

// AddrTable is the network's one address space: it interns every public
// address any peer publishes during the study into a dense ID, in one
// pass over the peers' address schedules. The census counts a peer's
// addresses by ID, and the censor's blacklists are bitsets over the IDs.
//
// The intern table is one flat open-addressed []int32 (ID+1 per slot, 0
// empty, at most half full), probed linearly from a fixed, unkeyed mix of
// the address's 16 bytes; a slot matches only when addrs[ID] == the
// address, so netip's equality holds (an IPv4 is not its v4-mapped IPv6
// form, a zoned address is not its unzoned one). No request ever inserts
// into it, so a daemon client can probe it (the service blacklist) but
// never shape it; a table a client fills (the service's limiter) needs a
// keyed hash.
//
// Every segment of every peer's schedule has one global position: the
// segments lie in one flat array, ordered by peer index and, within a
// peer, by fromDay, and peer i's run is [off[i], off[i+1]). A consumer
// that wants to remember which segments it saw (the census) keeps one
// bit per position instead of a set per peer. No per-peer slice header
// is kept.
//
// An AddrTable is immutable and safe for unbounded concurrent use. It is
// built on first use (Network.AddrTable), not in New, so a run that never
// asks for an address ID never pays for it.
type AddrTable struct {
	// addrs maps ID -> address (the reverse of the intern table).
	addrs []netip.Addr
	// table is the intern table, kept for IDOf lookups. Its length is a
	// power of two; slots hold ID+1, 0 where empty.
	table []int32
	// segs holds every peer's fromDay-ordered schedule with interned
	// address IDs, peer after peer; a segment's index is its position.
	segs []idSeg
	// off holds, by peer index, where the peer's segments start in segs,
	// plus one final entry: peer i's are segs[off[i]:off[i+1]], empty for
	// peers that never publish an address.
	off []int32
}

// idSeg is one interned segment of a peer's address schedule. IDs are -1
// when the peer publishes no such address in the segment.
type idSeg struct {
	fromDay int32
	v4, v6  int32
}

// addrTableKey is the address table's Derive key.
type addrTableKey struct{}

// AddrTable returns the network's address table, built on first call.
func (n *Network) AddrTable() *AddrTable {
	return Derive(n, addrTableKey{}, func() *AddrTable { return newAddrTable(n) })
}

// newAddrTable builds the table for a network. IDs are assigned in first
// occurrence order: peers ascending, each schedule in fromDay order, v4
// before v6.
func newAddrTable(n *Network) *AddrTable {
	// Count segments and addresses first, to size the segment array, the
	// table and its reverse up front (addresses an upper bound: an address
	// two segments share is counted twice).
	segs, addrs := 0, 0
	for i := range n.Peers {
		sched := n.schedule(i)
		segs += len(sched)
		for i := range sched {
			v4, v6 := sched[i].addrs()
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
	t := &AddrTable{
		addrs: make([]netip.Addr, 0, addrs),
		table: make([]int32, size),
		segs:  make([]idSeg, 0, segs),
		off:   make([]int32, len(n.Peers)+1),
	}
	for i := range n.Peers {
		sched := n.schedule(i)
		for j := range sched {
			v4, v6 := sched[j].addrs()
			t.segs = append(t.segs, idSeg{fromDay: int32(sched[j].fromDay), v4: t.intern(v4), v6: t.intern(v6)})
		}
		t.off[i+1] = int32(len(t.segs))
	}
	return t
}

// intern returns a's ID, assigning the next one on first sight, or -1 for
// the zero Addr. Only newAddrTable calls it: the table never grows after.
func (t *AddrTable) intern(a netip.Addr) int32 {
	if !a.IsValid() {
		return -1
	}
	slot := t.slot(a)
	if id := t.table[slot]; id != 0 {
		return id - 1
	}
	id := int32(len(t.addrs))
	t.table[slot] = id + 1
	t.addrs = append(t.addrs, a)
	return id
}

// slot returns the table position holding a's ID, or the empty position
// where a's probe sequence ends. The table is at most half full, so the
// probe always ends.
func (t *AddrTable) slot(a netip.Addr) int {
	mask := len(t.table) - 1
	for i := int(addrHash(a)) & mask; ; i = (i + 1) & mask {
		if id := t.table[i]; id == 0 || t.addrs[id-1] == a {
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

// NumAddrs returns the number of IDs: they run from 0 to NumAddrs()-1.
func (t *AddrTable) NumAddrs() int { return len(t.addrs) }

// Publishes reports whether peer idx publishes any address in the study.
func (t *AddrTable) Publishes(idx int) bool { return t.off[idx+1] > t.off[idx] }

// NumSegments returns the number of schedule segments of all peers: the
// positions run from 0 to NumSegments()-1.
func (t *AddrTable) NumSegments() int { return len(t.segs) }

// PeerSegments returns the positions [lo, hi) of peer idx's segments, in
// fromDay order; lo == hi for a peer that never publishes an address.
// The peers' runs tile [0, NumSegments) in peer-index order.
func (t *AddrTable) PeerSegments(idx int) (lo, hi int) {
	return int(t.off[idx]), int(t.off[idx+1])
}

// SegmentIDs returns the IDs of the addresses published in the segment at
// position pos, -1 where absent.
func (t *AddrTable) SegmentIDs(pos int) (v4, v6 int32) {
	return t.segs[pos].v4, t.segs[pos].v6
}

// Addr returns the address with the given ID.
func (t *AddrTable) Addr(id int32) netip.Addr { return t.addrs[id] }

// IDOf resolves an address to its ID, -1 when the address was never
// published during the study (the service's operator blacklist maps
// reported addresses this way). It only probes the table.
func (t *AddrTable) IDOf(a netip.Addr) int32 {
	if !a.IsValid() {
		return -1
	}
	return t.table[t.slot(a)] - 1
}

// SegmentOn returns the position of the segment peer idx publishes on
// day, or -1 for a peer that never publishes an address. It mirrors
// Network.AddrOnDay exactly, including the edge case that days before the
// first segment report the first segment.
func (t *AddrTable) SegmentOn(idx, day int) int {
	lo, hi := t.PeerSegments(idx)
	if lo == hi {
		return -1
	}
	cur := lo
	for pos := lo + 1; pos < hi && int(t.segs[pos].fromDay) <= day; pos++ {
		cur = pos
	}
	return cur
}

// PeerIDs returns the IDs of the addresses peer idx publishes on day, or
// -1 where absent: SegmentOn's segment's IDs.
func (t *AddrTable) PeerIDs(idx, day int) (v4, v6 int32) {
	pos := t.SegmentOn(idx, day)
	if pos < 0 {
		return -1, -1
	}
	return t.SegmentIDs(pos)
}
