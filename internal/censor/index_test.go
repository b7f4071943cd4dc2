package censor

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"net/netip"
	"slices"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// TestDayIDsMatchPeerIDs: a day's ID column lists, ascending, exactly
// the positions of ActivePeers(day) whose PeerIDs v4 is present, each
// with its PeerIDs, sized exactly, on every day — over a lookup patched
// to hold the two shapes the simulator never produces but PeerIDs
// defines: a schedule whose first segment starts after the day (the
// first segment answers) and a v6-only segment, which the column leaves
// out. A censor on an index whose memo holds those columns then holds
// what the per-sighting PeerIDs loop emitted: an ID only when v4 is
// present, v6 only beside a v4.
func TestDayIDsMatchPeerIDs(t *testing.T) {
	n := network(t)
	ix := NewAddrIndex(n)
	// The two known-IP peers online on the most days take the patches.
	online := make([]int, len(n.Peers))
	for day := 0; day < n.Days(); day++ {
		for _, idx := range n.ActivePeers(day) {
			if v4, _ := ix.addrs.PeerIDs(int(idx), day); v4 >= 0 {
				online[idx]++
			}
		}
	}
	byDays := make([]int, len(online))
	for idx := range byDays {
		byDays[idx] = idx
	}
	slices.SortStableFunc(byDays, func(a, b int) int { return online[b] - online[a] })
	late, v6only := byDays[0], byDays[1]
	peerIDs := func(idx, day int) (v4, v6 int32) {
		switch {
		case idx == late && day >= n.Days()-5:
			return 4, 5
		case idx == late:
			return 3, -1
		case idx == v6only:
			return -1, 6
		}
		return ix.addrs.PeerIDs(idx, day)
	}

	positions := map[int]int{} // patched peer -> positions in a column
	for day := 0; day < n.Days(); day++ {
		var want dayColumn
		for j, id := range n.ActivePeers(day) {
			if v4, v6 := peerIDs(int(id), day); v4 >= 0 {
				want.at = append(want.at, int32(j))
				want.ids = append(want.ids, dayID{v4, v6})
			}
		}
		col := ix.dayIDs.Get(day, func(day int) dayColumn { return ix.columnOf(day, peerIDs) })
		if !slices.Equal(col.at, want.at) || !slices.Equal(col.ids, want.ids) {
			t.Fatalf("day %d: column of %d positions, PeerIDs has %d addressed", day, len(col.at), len(want.at))
		}
		if cap(col.at) != len(col.at) || cap(col.ids) != len(col.ids) {
			t.Fatalf("day %d: column of %d positions holds room for %d and %d", day, len(col.at), cap(col.at), cap(col.ids))
		}
		if got := ix.dayColumn(day); !slices.Equal(got.ids, col.ids) {
			t.Fatalf("day %d: the memo does not hold the patched column", day)
		}
		for _, j := range col.at {
			if idx := int(n.ActivePeers(day)[j]); idx == late || idx == v6only {
				positions[idx]++
			}
		}
	}
	if positions[late] == 0 {
		t.Fatal("the late-starting schedule holds no column position")
	}
	if positions[v6only] != 0 {
		t.Fatalf("the v6-only peer holds %d column positions", positions[v6only])
	}
	if col := ix.dayColumn(-1); len(col.at) != 0 || len(col.ids) != 0 {
		t.Fatalf("out-of-range day has a column of %d", len(col.at))
	}

	c, err := newCensor(n, 2, 77)
	if err != nil {
		t.Fatal(err)
	}
	c.ix = ix
	sawV6Only := false
	for r := 0; r < c.Routers(); r++ {
		for day := 0; day < n.Days(); day++ {
			var want []int32
			for _, idx := range c.observers[r].ObserveDay(day) {
				sawV6Only = sawV6Only || idx == v6only
				v4, v6 := peerIDs(idx, day)
				if v4 < 0 {
					continue
				}
				want = append(want, v4)
				if v6 >= 0 {
					want = append(want, v6)
				}
			}
			got := c.observedIDs(r, day)
			if err := sameMembers(&got, want); err != nil {
				t.Fatalf("router %d day %d: through the column, against PeerIDs: %v", r, day, err)
			}
		}
	}
	if !sawV6Only {
		t.Fatal("no router ever saw the v6-only peer")
	}
}

func TestAddrSetOps(t *testing.T) {
	n := network(t)
	ix := IndexFor(n)
	s := ix.NewSet()
	if s.Len() != 0 || s.Has(0) {
		t.Fatal("fresh set not empty")
	}
	if s.Add(-1) {
		t.Fatal("negative ID accepted")
	}
	if !s.Add(3) || s.Add(3) {
		t.Fatal("Add must report first insertion only")
	}
	for _, id := range []int32{3, 5, 70, -1} {
		s.Add(id)
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d, want 3", s.Len())
	}
	for _, id := range []int32{3, 5, 70} {
		if !s.Has(id) {
			t.Fatalf("missing id %d", id)
		}
	}
	if s.Has(-1) || s.Has(4) {
		t.Fatal("spurious membership")
	}
	other := ix.NewSet()
	for _, id := range []int32{5, 70, 99} {
		other.Add(id)
	}
	if got := s.IntersectCount(other); got != 2 {
		t.Fatalf("intersect = %d, want 2", got)
	}
	if got := setMembers(s); !slices.Equal(got, []int32{3, 5, 70}) {
		t.Fatalf("members = %v", got)
	}
}

// setMembers lists the IDs in s in ascending order.
func setMembers(s *AddrSet) []int32 {
	var ids []int32
	for wi, w := range s.words {
		for ; w != 0; w &= w - 1 {
			ids = append(ids, int32(wi<<6+bits.TrailingZeros64(w)))
		}
	}
	return ids
}

func TestAddrSetRemove(t *testing.T) {
	n := network(t)
	ix := IndexFor(n)
	s := ix.NewSet()
	for _, id := range []int32{1, 64, 65} {
		s.Add(id)
	}
	if s.Remove(-1) || s.Remove(2) {
		t.Fatal("removing a non-member must report false")
	}
	if !s.Remove(64) || s.Has(64) || s.Len() != 2 {
		t.Fatalf("Remove(64) broken: len %d", s.Len())
	}
	if !s.Add(64) || s.Len() != 3 {
		t.Fatal("a removed member must add again")
	}
}

// TestAddrSetUnionMatchesMapOracle: Union leaves s holding the map union
// of both sets' IDs with Len its size, on random sets of every density
// over tables whose last word is partial and whole; a self-union and
// unions with an empty set change nothing they should not.
func TestAddrSetUnionMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(36, 64))
	for _, size := range []int{1, 63, 64, 65, 130, 1000} {
		newSet := func() *AddrSet { return &AddrSet{words: make([]uint64, (size+63)/64)} }
		random := func(members int) (*AddrSet, map[int32]bool) {
			set, m := newSet(), map[int32]bool{}
			for range members {
				id := int32(rng.IntN(size))
				if members > size/2 && rng.IntN(4) == 0 {
					id = int32(size - 1) // the table's last ID
				}
				set.Add(id)
				m[id] = true
			}
			return set, m
		}
		check := func(what string, set *AddrSet, want map[int32]bool) {
			t.Helper()
			ids := make([]int32, 0, len(want))
			for id := range want {
				ids = append(ids, id)
			}
			if err := sameMembers(set, ids); err != nil {
				t.Fatalf("size %d, %s: %v", size, what, err)
			}
		}
		for _, members := range []int{0, 1, size / 3, size, 4 * size} {
			s, sm := random(members)
			u, um := random(rng.IntN(2 * size))
			for id := range um {
				sm[id] = true
			}
			s.Union(u)
			check(fmt.Sprintf("%d random members", members), s, sm)
			check("the other side", u, um)

			s.Union(s)
			check("self-union", s, sm)
			s.Union(newSet())
			check("an empty union", s, sm)
			empty := newSet()
			empty.Union(s)
			check("union into an empty set", empty, sm)
		}
	}
}

// TestIndexSharedPerNetwork: every censor and victim on one network uses
// one interned table, owned by that network — a second network built
// from the same config interns an equal table of its own.
func TestIndexSharedPerNetwork(t *testing.T) {
	n := network(t)
	c, err := newCensor(n, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVictim(n, 2)
	if c.ix != v.ix || c.ix != IndexFor(n) || c.ix.addrs != n.AddrTable() {
		t.Fatal("censor and victim do not share the per-network index over the network's table")
	}
	twin, err := sim.New(n.Config())
	if err != nil {
		t.Fatal(err)
	}
	tix := IndexFor(twin)
	if tix == c.ix || tix.addrs == c.ix.addrs || tix.NumAddrs() != c.ix.NumAddrs() {
		t.Fatal("an identically configured network must own a distinct, equal index")
	}
	for id := range int32(tix.NumAddrs()) {
		if tix.addrs.Addr(id) != c.ix.addrs.Addr(id) {
			t.Fatalf("the twin's address %d is %v, not %v", id, tix.addrs.Addr(id), c.ix.addrs.Addr(id))
		}
	}
}

// TestBlacklistAtMatchesMapReference rebuilds the blacklist the
// pre-index way — per-day address maps unioned over routers and windows —
// and checks the set-backed blacklistSet returns exactly that map.
func TestBlacklistAtMatchesMapReference(t *testing.T) {
	n := network(t)
	c, err := newCensor(n, 6, 31)
	if err != nil {
		t.Fatal(err)
	}
	day, k, window := 15, 5, 4
	ref := referenceBlacklists(c)(k, window, day)
	got := blacklistMap(c, k, window, day)
	if len(got) != len(ref) {
		t.Fatalf("blacklist size = %d, want %d", len(got), len(ref))
	}
	for ip := range ref {
		if !got[ip] {
			t.Fatalf("missing %v", ip)
		}
	}
}

// referenceBlacklists returns the pre-index blacklist builder over c's
// fleet: each (router, day)'s addresses are gathered once the long way —
// ObserveDay, the peer's status, AddrOnDay — and a blacklist is the union
// of the first k routers' days in (day-window, day] as an address map.
func referenceBlacklists(c *Censor) func(k, window, day int) map[netip.Addr]bool {
	seen := make(map[[2]int][]netip.Addr)
	routerDay := func(r, d int) []netip.Addr {
		if addrs, ok := seen[[2]int{r, d}]; ok {
			return addrs
		}
		var addrs []netip.Addr
		for _, idx := range c.observers[r].ObserveDay(d) {
			v4, v6 := c.ix.net.AddrOnDay(idx, d)
			if c.ix.net.Peers[idx].Status == sim.StatusKnownIP && v4.IsValid() {
				addrs = append(addrs, v4)
				if v6.IsValid() {
					addrs = append(addrs, v6)
				}
			}
		}
		seen[[2]int{r, d}] = addrs
		return addrs
	}
	return func(k, window, day int) map[netip.Addr]bool {
		out := make(map[netip.Addr]bool)
		for r := 0; r < k; r++ {
			for d := max(day-window+1, 0); d <= day; d++ {
				for _, a := range routerDay(r, d) {
					out[a] = true
				}
			}
		}
		return out
	}
}

// blacklistMap materializes the blacklist in force on day under the
// first k monitoring routers and the given window as an address map, for
// comparison with the map-based references.
func blacklistMap(c *Censor, k, window, day int) map[netip.Addr]bool {
	return addrMap(c.ix, c.blacklistSet(k, window, day))
}

// knownAddressMap materializes the victim's netDb addresses on day.
func knownAddressMap(v *Victim, day int) map[netip.Addr]bool {
	return addrMap(v.ix, v.addrSet(day))
}

func addrMap(ix *AddrIndex, set *AddrSet) map[netip.Addr]bool {
	out := make(map[netip.Addr]bool, set.Len())
	for _, id := range setMembers(set) {
		out[ix.addrs.Addr(id)] = true
	}
	return out
}

// TestKnownAddressesMatchesReference replays the pre-index victim netDb
// fold (observation-day addresses, stale retention) against the
// index-backed victim netDb.
func TestKnownAddressesMatchesReference(t *testing.T) {
	n := network(t)
	v := NewVictim(n, 99)
	day := 15
	ref := make(map[netip.Addr]bool)
	for d := day - netDbWindowDays + 1; d <= day; d++ {
		for _, idx := range v.obs.ObserveDay(d) {
			if d < day && !retainStale(idx, d) {
				continue
			}
			if n.Peers[idx].Status != sim.StatusKnownIP {
				continue
			}
			v4, v6 := n.AddrOnDay(int(idx), d)
			if v4.IsValid() {
				ref[v4] = true
			}
			if v6.IsValid() {
				ref[v6] = true
			}
		}
	}
	got := knownAddressMap(v, day)
	if len(got) != len(ref) {
		t.Fatalf("netDb size = %d, want %d", len(got), len(ref))
	}
	for ip := range ref {
		if !got[ip] {
			t.Fatalf("missing %v", ip)
		}
	}
}
