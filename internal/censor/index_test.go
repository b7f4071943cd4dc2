package censor

import (
	"fmt"
	"math/rand/v2"
	"net/netip"
	"slices"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// TestAddrIndexMatchesAddrOnDay: the interned per-(peer, day) IDs resolve
// to exactly the addresses AddrOnDay reports, for every peer and day —
// and an IPv4 ID is present exactly for known-IP peers, which is what
// lets Censor.observedIDs ask the index alone and never the peer's Status.
func TestAddrIndexMatchesAddrOnDay(t *testing.T) {
	n := network(t)
	ix := NewAddrIndex(n)
	if ix.NumAddrs() == 0 {
		t.Fatal("empty address table")
	}
	for _, p := range n.Peers {
		for day := 0; day < n.Days(); day++ {
			v4, v6 := p.AddrOnDay(day)
			id4, id6 := ix.PeerIDs(p.Index, day)
			if p.Status != sim.StatusKnownIP {
				if id4 >= 0 || id6 >= 0 {
					t.Fatalf("peer %d: unknown-IP peer has interned addresses", p.Index)
				}
				continue
			}
			if id4 < 0 {
				t.Fatalf("peer %d day %d: known-IP peer has no interned IPv4", p.Index, day)
			}
			check := func(id int32, addr netip.Addr) {
				t.Helper()
				if (id >= 0) != addr.IsValid() {
					t.Fatalf("peer %d day %d: id %d vs addr %v validity mismatch", p.Index, day, id, addr)
				}
				if id >= 0 && ix.addrs[id] != addr {
					t.Fatalf("peer %d day %d: id resolves to %v, want %v", p.Index, day, ix.addrs[id], addr)
				}
			}
			check(id4, v4)
			check(id6, v6)
		}
	}
}

// TestDayIDsMatchPeerIDs: a day's ID column lists, ascending, exactly
// the positions of ActivePeers(day) whose PeerIDs v4 is present, each
// with its PeerIDs, sized exactly, on every day — over an index patched
// to hold the two shapes the simulator never produces but PeerIDs
// defines: a schedule whose first segment starts after the day (the
// first segment answers) and a v6-only segment, which the column leaves
// out. A censor on that index then holds what the per-sighting PeerIDs
// loop emitted: an ID only when v4 is present, v6 only beside a v4.
func TestDayIDsMatchPeerIDs(t *testing.T) {
	n := network(t)
	ix := NewAddrIndex(n)
	// The two known-IP peers online on the most days take the patches.
	online := make([]int, len(n.Peers))
	for day := 0; day < n.Days(); day++ {
		for _, idx := range n.ActivePeers(day) {
			if ix.segs[idx] != nil {
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
	ix.segs[late] = []idSeg{{fromDay: n.Days() / 2, v4: 3, v6: -1}, {fromDay: n.Days() - 5, v4: 4, v6: 5}}
	ix.segs[v6only] = []idSeg{{fromDay: 0, v4: -1, v6: 6}}

	positions := map[int]int{} // patched peer -> positions in a column
	for day := 0; day < n.Days(); day++ {
		var want dayColumn
		for j, id := range n.ActivePeers(day) {
			if v4, v6 := ix.PeerIDs(int(id), day); v4 >= 0 {
				want.at = append(want.at, int32(j))
				want.ids = append(want.ids, dayID{v4, v6})
			}
		}
		col := ix.dayColumn(day)
		if !slices.Equal(col.at, want.at) || !slices.Equal(col.ids, want.ids) {
			t.Fatalf("day %d: column of %d positions, PeerIDs has %d addressed", day, len(col.at), len(want.at))
		}
		if cap(col.at) != len(col.at) || cap(col.ids) != len(col.ids) {
			t.Fatalf("day %d: column of %d positions holds room for %d and %d", day, len(col.at), cap(col.at), cap(col.ids))
		}
		for _, j := range col.at {
			if idx := int(n.ActivePeers(day)[j]); idx == late || idx == v6only {
				positions[idx]++
			}
		}
	}
	if v4, v6 := ix.PeerIDs(late, 0); v4 != 3 || v6 != -1 || positions[late] == 0 {
		t.Fatalf("late-starting schedule answers (%d, %d) on day 0 at %d positions", v4, v6, positions[late])
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
				v4, v6 := ix.PeerIDs(idx, day)
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

// TestAddrIndexIDOf: every interned address resolves back to its ID, and
// addresses the study never published resolve to -1 — including the
// forms that hash like a published address but are not equal to it under
// netip's rules: an IPv4's v4-mapped IPv6 form and a zoned IPv6.
func TestAddrIndexIDOf(t *testing.T) {
	n := network(t)
	ix := NewAddrIndex(n)
	var v4, v6 netip.Addr
	for id := int32(0); id < int32(ix.NumAddrs()); id++ {
		a := ix.addrs[id]
		if got := ix.IDOf(a); got != id {
			t.Fatalf("IDOf(Addr(%d)) = %d", id, got)
		}
		if a.Is4() && !v4.IsValid() {
			v4 = a
		}
		if a.Is6() && !v6.IsValid() {
			v6 = a
		}
	}
	if !v4.IsValid() || !v6.IsValid() {
		t.Fatalf("the study publishes no IPv4 (%v) or no IPv6 (%v)", v4, v6)
	}
	for _, a := range []netip.Addr{
		{},
		netip.MustParseAddr("203.0.113.77"),
		netip.AddrFrom16(v4.As16()),
		v6.WithZone("eth0"),
	} {
		if got := ix.IDOf(a); got != -1 {
			t.Fatalf("IDOf(%v) = %d, want -1", a, got)
		}
	}
}

// refIndex is what referenceAddrIndex builds: the ID table and the
// interned schedules, with the map it interned through.
type refIndex struct {
	addrs []netip.Addr
	ids   map[netip.Addr]int32
	segs  [][]idSeg
}

// referenceAddrIndex is the map-based intern pass the flat open-addressed
// table replaced: peers ascending, each schedule in FromDay order, v4
// before v6, first occurrence wins, one slice per peer.
func referenceAddrIndex(n *sim.Network) refIndex {
	ref := refIndex{ids: make(map[netip.Addr]int32), segs: make([][]idSeg, len(n.Peers))}
	intern := func(a netip.Addr) int32 {
		if !a.IsValid() {
			return -1
		}
		if id, ok := ref.ids[a]; ok {
			return id
		}
		id := int32(len(ref.addrs))
		ref.ids[a] = id
		ref.addrs = append(ref.addrs, a)
		return id
	}
	for i, p := range n.Peers {
		if p.Status != sim.StatusKnownIP {
			continue
		}
		for j := range p.NumAddrSegments() {
			from, v4, v6 := p.AddrSegmentAt(j)
			ref.segs[i] = append(ref.segs[i], idSeg{fromDay: from, v4: intern(v4), v6: intern(v6)})
		}
	}
	return ref
}

// TestAddrIndexMatchesReference: the flat table assigns every address the
// ID the map-based reference does, interns every schedule alike, and
// resolves every address back to its ID — at both bench seeds, at 0.1
// scale and (outside -short) at paper scale.
func TestAddrIndexMatchesReference(t *testing.T) {
	scales := []int{3050}
	if !testing.Short() {
		scales = append(scales, 30500)
	}
	for _, seed := range []uint64{2018, 424242} {
		for _, peers := range scales {
			n, err := sim.New(sim.Config{Seed: seed, Days: 45, TargetDailyPeers: peers})
			if err != nil {
				t.Fatal(err)
			}
			ix, ref := NewAddrIndex(n), referenceAddrIndex(n)
			if !slices.Equal(ix.addrs, ref.addrs) {
				t.Fatalf("seed %d, %d peers: %d addresses, the reference interns %d", seed, peers, len(ix.addrs), len(ref.addrs))
			}
			for i := range ref.segs {
				if !slices.Equal(ix.segs[i], ref.segs[i]) || (ix.segs[i] == nil) != (ref.segs[i] == nil) {
					t.Fatalf("seed %d, %d peers: peer %d interned as %v, the reference %v", seed, peers, i, ix.segs[i], ref.segs[i])
				}
			}
			for id, a := range ix.addrs {
				if got := ix.IDOf(a); got != int32(id) || ref.ids[a] != got {
					t.Fatalf("seed %d, %d peers: IDOf(%v) = %d, want %d", seed, peers, a, got, id)
				}
			}
		}
	}
}

// TestAddrIndexAllocs pins the build's allocation count: the table, the
// reverse, the segment array and the per-peer slice headers are sized up
// front, so no allocation is made per peer or per address.
func TestAddrIndexAllocs(t *testing.T) {
	n, err := sim.New(sim.Config{Seed: 2018, Days: 45, TargetDailyPeers: 3050})
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(3, func() { NewAddrIndex(n) }); allocs > 16 {
		t.Fatalf("NewAddrIndex makes %.0f allocations, want at most 16", allocs)
	}
}

// indexSink keeps BenchmarkNewAddrIndex's build observable.
var indexSink *AddrIndex

// BenchmarkNewAddrIndex builds the address index of a paper-scale
// network (0.1 scale under -short).
func BenchmarkNewAddrIndex(b *testing.B) {
	peers := 30500
	if testing.Short() {
		peers = 3050
	}
	n, err := sim.New(sim.Config{Seed: 2018, Days: 45, TargetDailyPeers: peers})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		indexSink = NewAddrIndex(n)
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
	var got []int32
	s.ForEach(func(id int32) { got = append(got, id) })
	if len(got) != 3 || got[0] != 3 || got[1] != 5 || got[2] != 70 {
		t.Fatalf("ForEach order = %v", got)
	}
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
	if c.ix != v.ix || c.ix != IndexFor(n) {
		t.Fatal("censor and victim do not share the per-network index")
	}
	twin, err := sim.New(n.Config())
	if err != nil {
		t.Fatal(err)
	}
	if tix := IndexFor(twin); tix == c.ix || !slices.Equal(tix.addrs, c.ix.addrs) {
		t.Fatal("an identically configured network must own a distinct, equal index")
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
			p := c.ix.net.Peers[idx]
			v4, v6 := p.AddrOnDay(d)
			if p.Status == sim.StatusKnownIP && v4.IsValid() {
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
	set.ForEach(func(id int32) { out[ix.addrs[id]] = true })
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
			p := n.Peers[idx]
			if p.Status != sim.StatusKnownIP {
				continue
			}
			v4, v6 := p.AddrOnDay(d)
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
