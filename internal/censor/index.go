package censor

import (
	"math/bits"
	"slices"
	"sync"

	"github.com/i2pstudy/i2pstudy/internal/cache"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// AddrIndex is the censor's view of the network's address table
// (sim.AddrTable): blacklists, victim netDb views and blocking rates are
// bitset operations over the table's dense IDs instead of
// map[netip.Addr]bool rebuilds — the allocation hot spot of the original
// Section 6 sweeps. A sweep cell's blacklist is one AddrSet over the
// table, unioned from scratch (Sweep.Blacklist).
//
// An AddrIndex is safe for unbounded concurrent use, matching
// sim.Network's concurrency contract. The per-day ID columns (dayColumn)
// are part of the index: built lazily, at most once per day, pure in
// (network, day), and — because the index is the network's sim.Derive
// slot — shared by every censor and sweep on the network, collected with
// it, and epoched with it should the network ever grow a mutating API. A
// column lists only a day's addressed positions, so a monitoring router
// draws them through sim.Observer.DrawDayAt, the subset form of the
// full-day DrawDay, held to it draw for draw.
type AddrIndex struct {
	net   *sim.Network
	addrs *sim.AddrTable
	// dayIDs memoizes dayColumn, one column per study day.
	dayIDs *cache.DayMemo[dayColumn]
}

// dayID is one entry of a day's ID column: the address IDs a peer
// publishes on the day, v6 -1 where absent.
type dayID struct{ v4, v6 int32 }

// dayColumn is a day's addressed peers: at[k] is a position in
// ActivePeers(day) whose peer publishes an IPv4 on the day, ascending,
// and ids[k] are that peer's PeerIDs. Every other position — the
// firewalled and hidden peers, about half a day's active peers — is left
// out, as nothing can be blacklisted for it.
type dayColumn struct {
	at  []int32
	ids []dayID
}

// NewAddrIndex returns an index over the network's address table, which
// it builds if no one has yet (sim.Network.AddrTable).
func NewAddrIndex(n *sim.Network) *AddrIndex {
	return &AddrIndex{
		net:    n,
		addrs:  n.AddrTable(),
		dayIDs: cache.NewDayMemo[dayColumn](n.Days(), dayIDsRing),
	}
}

// NumAddrs returns the size of the address table the sets range over.
func (ix *AddrIndex) NumAddrs() int { return ix.addrs.NumAddrs() }

// PeerBlocked reports whether peer idx's address on day — either of its
// v4 and v6 — is on the blacklist bl. Peers without a published address
// are never blocked.
func (ix *AddrIndex) PeerBlocked(bl *AddrSet, idx, day int) bool {
	v4, v6 := ix.addrs.PeerIDs(idx, day)
	return bl.Has(v4) || bl.Has(v6)
}

// dayColumn returns the day's ID column: the positions of
// ActivePeers(day) whose peer publishes an IPv4 on the day, and their
// PeerIDs. A monitoring router's capture draws exactly these positions
// (sim.Observer.DrawDayAt) and sets the IDs of the ones it keeps — one
// sequential 8-byte read per sighting instead of a schedule walk behind a
// per-peer pointer. The column is shared and must not be modified.
func (ix *AddrIndex) dayColumn(day int) dayColumn {
	return ix.dayIDs.Get(day, func(day int) dayColumn { return ix.columnOf(day, ix.addrs.PeerIDs) })
}

// columnOf builds day's ID column from the IDs peerIDs gives each active
// peer. It is sized from the peers that publish any address, which on a
// simulated network are exactly the day's IPv4 publishers; should one
// publish only a v6 that day, the column is clipped to what it holds.
func (ix *AddrIndex) columnOf(day int, peerIDs func(idx, day int) (v4, v6 int32)) dayColumn {
	active := ix.net.ActivePeers(day)
	n := 0
	for _, idx := range active {
		if ix.addrs.Publishes(int(idx)) {
			n++
		}
	}
	col := dayColumn{at: make([]int32, 0, n), ids: make([]dayID, 0, n)}
	for j, idx := range active {
		if v4, v6 := peerIDs(int(idx), day); v4 >= 0 {
			col.at = append(col.at, int32(j))
			col.ids = append(col.ids, dayID{v4, v6})
		}
	}
	return dayColumn{slices.Clip(col.at), slices.Clip(col.ids)}
}

// Holders calls fn once for each address of bl that a peer publishes on
// day, with the peer holding it — when several do, the last of them in
// ActivePeers(day) order. It walks the day's ID column, which holds
// exactly the day's active known-IP peers (only they have schedules, and
// every segment carries an IPv4), newest position first, so the first
// entry naming an address decides it. The decided marks come from a pool:
// a warm call allocates nothing.
func (ix *AddrIndex) Holders(bl *AddrSet, day int, fn func(id int32, peer int)) {
	col := ix.dayColumn(day)
	active := ix.net.ActivePeers(day)
	scratch := holderScratch.Get().(*[]uint64)
	if cap(*scratch) < len(bl.words) {
		*scratch = make([]uint64, len(bl.words))
	}
	decided := AddrSet{words: (*scratch)[:len(bl.words)]}
	for k := len(col.ids) - 1; k >= 0 && decided.count < bl.count; k-- {
		e := col.ids[k]
		for _, id := range [2]int32{e.v4, e.v6} {
			if bl.Has(id) && decided.Add(id) {
				fn(id, int(active[col.at[k]]))
			}
		}
	}
	clear(decided.words)
	holderScratch.Put(scratch)
}

// holderScratch recycles Holders' decided marks, one bitset per worker.
var holderScratch = sync.Pool{New: func() any { return new([]uint64) }}

// AddrSet is a bitset over the network's address table with a cardinality
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
	return &AddrSet{words: make([]uint64, (ix.NumAddrs()+63)/64)}
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

// Union adds every member of t to s, a word at a time, for two sets over
// the same index.
func (s *AddrSet) Union(t *AddrSet) {
	for i, w := range t.words {
		nw := w &^ s.words[i]
		s.words[i] |= nw
		s.count += bits.OnesCount64(nw)
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

// indexKey is the index's sim.Derive key.
type indexKey struct{}

// IndexFor returns the network's address index. It is network-owned
// (sim.Derive): built at most once per network, shared by every censor,
// victim, sweep and distrib blacklist on that network — the censorship
// experiments run concurrently on one study network (core.Study.RunAll)
// and must not each rebuild the day columns — and collected with it.
func IndexFor(n *sim.Network) *AddrIndex {
	return sim.Derive(n, indexKey{}, func() *AddrIndex { return NewAddrIndex(n) })
}
