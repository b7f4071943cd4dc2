package censor

import (
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
				if id >= 0 && ix.Addr(id) != addr {
					t.Fatalf("peer %d day %d: id resolves to %v, want %v", p.Index, day, ix.Addr(id), addr)
				}
			}
			check(id4, v4)
			check(id6, v6)
		}
	}
}

// TestDayIDsMatchPeerIDs: a day's ID column is PeerIDs at every position
// of ActivePeers(day), -1s included, on every day — over an index patched
// to hold the two shapes the simulator never produces but PeerIDs
// defines: a schedule whose first segment starts after the day (the
// first segment answers) and a v6-only segment. A censor on that index
// then emits what the per-sighting PeerIDs loop emitted: an ID only when
// v4 is present, v6 only beside a v4.
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

	positions := map[int]int{} // patched peer -> positions checked
	for day := 0; day < n.Days(); day++ {
		active := n.ActivePeers(day)
		col := ix.dayColumn(day)
		if len(col) != len(active) {
			t.Fatalf("day %d: column of %d for %d active peers", day, len(col), len(active))
		}
		for j, idx := range active {
			v4, v6 := ix.PeerIDs(idx, day)
			if col[j] != (dayID{v4, v6}) {
				t.Fatalf("day %d position %d (peer %d): column %+v, PeerIDs (%d, %d)", day, j, idx, col[j], v4, v6)
			}
			if idx == late || idx == v6only {
				positions[idx]++
			}
		}
	}
	if v4, v6 := ix.PeerIDs(late, 0); v4 != 3 || v6 != -1 || positions[late] == 0 {
		t.Fatalf("late-starting schedule answers (%d, %d) on day 0 at %d positions", v4, v6, positions[late])
	}
	if positions[v6only] == 0 {
		t.Fatal("the v6-only peer is never active")
	}
	if col := ix.dayColumn(-1); len(col) != 0 {
		t.Fatalf("out-of-range day has a column of %d", len(col))
	}

	c, err := NewCensor(n, 2, 1, 77)
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
			if got := c.observedIDs(r, day); !slices.Equal(got, want) {
				t.Fatalf("router %d day %d: %d IDs through the column, %d through PeerIDs", r, day, len(got), len(want))
			}
		}
	}
	if !sawV6Only {
		t.Fatal("no router ever saw the v6-only peer")
	}
}

// TestAddrIndexIDOf: every interned address resolves back to its ID, and
// addresses the study never published resolve to -1.
func TestAddrIndexIDOf(t *testing.T) {
	n := network(t)
	ix := NewAddrIndex(n)
	for id := int32(0); id < int32(ix.NumAddrs()); id++ {
		if got := ix.IDOf(ix.Addr(id)); got != id {
			t.Fatalf("IDOf(Addr(%d)) = %d", id, got)
		}
	}
	if got := ix.IDOf(netip.MustParseAddr("203.0.113.77")); got != -1 {
		t.Fatalf("IDOf(unpublished) = %d, want -1", got)
	}
	if got := ix.IDOf(netip.Addr{}); got != -1 {
		t.Fatalf("IDOf(zero addr) = %d, want -1", got)
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
	s.AddAll([]int32{3, 5, 70, -1})
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
	other.AddAll([]int32{5, 70, 99})
	if got := s.IntersectCount(other); got != 2 {
		t.Fatalf("intersect = %d, want 2", got)
	}
	var got []int32
	s.ForEach(func(id int32) { got = append(got, id) })
	if len(got) != 3 || got[0] != 3 || got[1] != 5 || got[2] != 70 {
		t.Fatalf("ForEach order = %v", got)
	}
}

// TestIndexSharedPerNetwork: every censor and victim on one network uses
// one interned table, owned by that network — a second network built
// from the same config interns an equal table of its own.
func TestIndexSharedPerNetwork(t *testing.T) {
	n := network(t)
	c, err := NewCensor(n, 2, 1, 1)
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
// and checks the set-backed BlacklistAt returns exactly that map.
func TestBlacklistAtMatchesMapReference(t *testing.T) {
	n := network(t)
	c, err := NewCensor(n, 6, 4, 31)
	if err != nil {
		t.Fatal(err)
	}
	day, k := 15, 5
	ref := make(map[netip.Addr]bool)
	for r := 0; r < k; r++ {
		for d := day - c.WindowDays + 1; d <= day; d++ {
			for _, idx := range c.observers[r].ObserveDay(d) {
				p := n.Peers[idx]
				v4, v6 := p.AddrOnDay(d)
				if p.Status == sim.StatusKnownIP && v4.IsValid() {
					ref[v4] = true
					if v6.IsValid() {
						ref[v6] = true
					}
				}
			}
		}
	}
	got := c.BlacklistAt(k, day)
	if len(got) != len(ref) {
		t.Fatalf("blacklist size = %d, want %d", len(got), len(ref))
	}
	for ip := range ref {
		if !got[ip] {
			t.Fatalf("missing %v", ip)
		}
	}
}

// TestKnownAddressesMatchesReference replays the pre-index victim netDb
// fold (observation-day addresses, stale retention) against the
// index-backed KnownAddresses.
func TestKnownAddressesMatchesReference(t *testing.T) {
	n := network(t)
	v := NewVictim(n, 99)
	day := 15
	ref := make(map[netip.Addr]bool)
	for d := day - v.NetDbWindowDays + 1; d <= day; d++ {
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
	got := v.KnownAddresses(day)
	if len(got) != len(ref) {
		t.Fatalf("netDb size = %d, want %d", len(got), len(ref))
	}
	for ip := range ref {
		if !got[ip] {
			t.Fatalf("missing %v", ip)
		}
	}
}
