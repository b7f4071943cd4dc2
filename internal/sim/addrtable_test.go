package sim

import (
	"net/netip"
	"slices"
	"testing"
)

// TestAddrIndexMatchesAddrOnDay: the interned per-(peer, day) IDs resolve
// to exactly the addresses AddrOnDay reports, for every peer and day —
// and an IPv4 ID is present exactly for known-IP peers, which is what
// lets the censor's capture ask the table alone and never the peer's
// Status.
func TestAddrIndexMatchesAddrOnDay(t *testing.T) {
	n := testNetwork(t, 40)
	tab := n.AddrTable()
	if tab.NumAddrs() == 0 {
		t.Fatal("empty address table")
	}
	for i, p := range n.Peers {
		for day := 0; day < n.Days(); day++ {
			v4, v6 := n.AddrOnDay(i, day)
			id4, id6 := tab.PeerIDs(i, day)
			if p.Status != StatusKnownIP {
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
				if id >= 0 && tab.Addr(id) != addr {
					t.Fatalf("peer %d day %d: id resolves to %v, want %v", p.Index, day, tab.Addr(id), addr)
				}
			}
			check(id4, v4)
			check(id6, v6)
		}
	}
}

// TestAddrIndexIDOf: every interned address resolves back to its ID, and
// addresses the study never published resolve to -1 — including the
// forms that hash like a published address but are not equal to it under
// netip's rules: an IPv4's v4-mapped IPv6 form and a zoned IPv6.
func TestAddrIndexIDOf(t *testing.T) {
	tab := testNetwork(t, 40).AddrTable()
	var v4, v6 netip.Addr
	for id := int32(0); id < int32(tab.NumAddrs()); id++ {
		a := tab.Addr(id)
		if got := tab.IDOf(a); got != id {
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
		if got := tab.IDOf(a); got != -1 {
			t.Fatalf("IDOf(%v) = %d, want -1", a, got)
		}
	}
}

// TestAddrTableSegmentsMatchPeerIDs: for every peer and day, the segment
// SegmentOn names carries exactly the IDs PeerIDs reports (-1 for a peer
// with no segment), and the peers' PeerSegments ranges tile
// [0, NumSegments) in peer-index order, each segment in fromDay order.
func TestAddrTableSegmentsMatchPeerIDs(t *testing.T) {
	n := testNetwork(t, 40)
	tab := n.AddrTable()
	next := 0
	for i := range n.Peers {
		lo, hi := tab.PeerSegments(i)
		if lo != next || hi < lo {
			t.Fatalf("peer %d: segments [%d, %d), want them to start at %d", i, lo, hi, next)
		}
		next = hi
		if tab.Publishes(i) != (hi > lo) {
			t.Fatalf("peer %d: Publishes %v with %d segments", i, tab.Publishes(i), hi-lo)
		}
		for pos := lo + 1; pos < hi; pos++ {
			if tab.segs[pos-1].fromDay >= tab.segs[pos].fromDay {
				t.Fatalf("peer %d: segments %d and %d out of fromDay order", i, pos-1, pos)
			}
		}
		// Day -1 is before every peer's first segment: SegmentOn names
		// the first one, as AddrOnDay reports it.
		for day := -1; day < n.Days(); day++ {
			v4, v6 := tab.PeerIDs(i, day)
			pos := tab.SegmentOn(i, day)
			if pos < 0 {
				if lo != hi || v4 != -1 || v6 != -1 {
					t.Fatalf("peer %d day %d: no segment, PeerIDs (%d, %d), %d segments", i, day, v4, v6, hi-lo)
				}
				continue
			}
			if pos < lo || pos >= hi {
				t.Fatalf("peer %d day %d: segment %d outside its range [%d, %d)", i, day, pos, lo, hi)
			}
			if s4, s6 := tab.SegmentIDs(pos); s4 != v4 || s6 != v6 {
				t.Fatalf("peer %d day %d: segment %d carries (%d, %d), PeerIDs (%d, %d)", i, day, pos, s4, s6, v4, v6)
			}
		}
	}
	if next != tab.NumSegments() {
		t.Fatalf("the peers' segments end at %d of %d", next, tab.NumSegments())
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
// table replaced: peers ascending, each schedule in fromDay order, v4
// before v6, first occurrence wins, one slice per peer.
func referenceAddrIndex(n *Network) refIndex {
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
		if p.Status != StatusKnownIP {
			continue
		}
		for _, seg := range n.schedule(i) {
			v4, v6 := seg.addrs()
			ref.segs[i] = append(ref.segs[i], idSeg{fromDay: int32(seg.fromDay), v4: intern(v4), v6: intern(v6)})
		}
	}
	return ref
}

// TestAddrIndexMatchesReference: the flat table assigns every address the
// ID the map-based reference does, interns every schedule alike (each
// peer's offset range of the flat segment array holds the reference's
// per-peer slice), and resolves every address back to its ID — at both
// bench seeds, at 0.1 scale and (outside -short) at paper scale.
func TestAddrIndexMatchesReference(t *testing.T) {
	scales := []int{3050}
	if !testing.Short() {
		scales = append(scales, PaperDailyPeers)
	}
	for _, seed := range []uint64{2018, 424242} {
		for _, peers := range scales {
			n, err := New(Config{Seed: seed, Days: 45, TargetDailyPeers: peers})
			if err != nil {
				t.Fatal(err)
			}
			tab, ref := n.AddrTable(), referenceAddrIndex(n)
			if !slices.Equal(tab.addrs, ref.addrs) {
				t.Fatalf("seed %d, %d peers: %d addresses, the reference interns %d", seed, peers, len(tab.addrs), len(ref.addrs))
			}
			for i := range ref.segs {
				lo, hi := tab.PeerSegments(i)
				if own := tab.segs[lo:hi]; !slices.Equal(own, ref.segs[i]) || tab.Publishes(i) != (ref.segs[i] != nil) {
					t.Fatalf("seed %d, %d peers: peer %d interned as %v, the reference %v", seed, peers, i, own, ref.segs[i])
				}
			}
			for id, a := range tab.addrs {
				if got := tab.IDOf(a); got != int32(id) || ref.ids[a] != got {
					t.Fatalf("seed %d, %d peers: IDOf(%v) = %d, want %d", seed, peers, a, got, id)
				}
			}
		}
	}
}

// TestAddrIndexAllocs pins the build's allocation count: the table, the
// reverse, the flat segment array and the per-peer offsets are sized up
// front, so no allocation is made per peer or per address.
func TestAddrIndexAllocs(t *testing.T) {
	n, err := New(Config{Seed: 2018, Days: 45, TargetDailyPeers: 3050})
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(3, func() { newAddrTable(n) }); allocs > 16 {
		t.Fatalf("newAddrTable makes %.0f allocations, want at most 16", allocs)
	}
}

// tableSink keeps BenchmarkNewAddrIndex's build observable.
var tableSink *AddrTable

// BenchmarkNewAddrIndex builds the address table of a paper-scale
// network (0.1 scale under -short).
func BenchmarkNewAddrIndex(b *testing.B) {
	peers := PaperDailyPeers
	if testing.Short() {
		peers = 3050
	}
	n, err := New(Config{Seed: 2018, Days: 45, TargetDailyPeers: peers})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tableSink = newAddrTable(n)
	}
}
