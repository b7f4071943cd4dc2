package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"net/netip"
	"slices"
	"testing"
)

// digester feeds fixed-width encodings of a network's fields into one
// SHA-256. Addresses go in through their validity bit and As16, never
// through %v: a netip.Addr formatted as a struct prints its
// internal handle pointer, which differs from one process to the next.
type digester struct {
	h   hash.Hash
	buf [8]byte
}

func (d *digester) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digester) int(v int)     { d.u64(uint64(int64(v))) }
func (d *digester) f64(v float64) { d.u64(math.Float64bits(v)) }
func (d *digester) str(s string)  { d.int(len(s)); d.h.Write([]byte(s)) }
func (d *digester) bool(b bool) {
	if b {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

func (d *digester) addr(a netip.Addr) {
	d.bool(a.IsValid())
	b := a.As16()
	d.h.Write(b[:])
}

// networkDigest is the SHA-256 over every field of every peer, the per-day
// active sets, every introducer pool (peer index and IPv4) and the dense
// draw columns: everything New builds.
func networkDigest(n *Network) string {
	d := &digester{h: sha256.New()}
	d.int(len(n.Peers))
	for _, p := range n.Peers {
		d.int(p.Index)
		d.h.Write(p.ID[:])
		d.int(int(p.Profile.Class))
		d.int(p.Profile.SpanDays)
		d.f64(p.Profile.OnOn)
		d.f64(p.Profile.OffOn)
		d.int(int(p.IPProfile.Mode))
		d.f64(p.IPProfile.RotationMeanDays)
		d.int(p.IPProfile.ASFanout)
		d.bool(p.IPProfile.IPv6)
		d.int(int(p.Status))
		d.str(p.Country)
		d.int(len(p.ASPool))
		for _, asn := range p.ASPool {
			d.u64(uint64(asn))
		}
		d.int(int(p.Class))
		d.bool(p.LegacyO)
		d.int(p.RateKBps)
		d.bool(p.Floodfill)
		d.bool(p.Reachable)
		d.int(p.StartDay)
		d.int(len(p.Presence))
		for _, on := range p.Presence {
			d.bool(on)
		}
		d.bool(p.WellExposed)
		d.f64(p.Exposure)
		d.int(len(p.ipSchedule))
		for _, seg := range p.ipSchedule {
			d.int(seg.fromDay)
			d.u64(uint64(seg.asn))
			d.addr(seg.addr)
			d.addr(seg.v6)
		}
		d.int(len(p.extraIPs))
		for _, a := range p.extraIPs {
			d.addr(a)
		}
		d.int(len(p.extraASNs))
		for _, asn := range p.extraASNs {
			d.u64(uint64(asn))
		}
	}
	d.int(len(n.activeByDay))
	for _, day := range n.activeByDay {
		d.int(len(day))
		for _, i := range day {
			d.int(i)
		}
	}
	d.int(len(n.introducersByDay))
	for _, pool := range n.introducersByDay {
		d.int(len(pool.peers))
		for i, p := range pool.peers {
			d.int(p.Index)
			d.addr(pool.v4[i])
		}
	}
	d.int(len(n.drawClass))
	for i, c := range n.drawClass {
		d.int(int(c))
		d.f64(n.drawExposure[i])
	}
	return hex.EncodeToString(d.h.Sum(nil))
}

// TestNetworkGolden pins every byte New builds at two seeds: a rewrite of
// the construction that claims no network byte moved must keep these.
func TestNetworkGolden(t *testing.T) {
	cases := []struct {
		seed  uint64
		peers int
		want  string
	}{
		{2018, 3050, "e8c52fc94e377a41eb36058b0a050eaddafadaa3531314357286897a11a9083f"},
		{424242, 3050, "6cac34d837875032b85666059cd13a0186378ea56471a1add8b84bcaffc761d9"},
		{2018, 30500, "9ddb721d5491a7dd8e988b775ecd688947533775a029f689961c54f9581d9aca"},
		{424242, 30500, "9ead9cdadbad78d3e401a90d9dda7191f64840d5acbc92f09322a687c1bed3b7"},
	}
	for _, tc := range cases {
		if testing.Short() && tc.peers > 3050 {
			continue
		}
		n, err := New(Config{Seed: tc.seed, Days: 45, TargetDailyPeers: tc.peers})
		if err != nil {
			t.Fatal(err)
		}
		if got := networkDigest(n); got != tc.want {
			t.Errorf("seed %d, %d daily peers: network digest %s, want %s", tc.seed, tc.peers, got, tc.want)
		}
	}
}

// referenceIndex is Network.index as it stood before the single counted
// pass: two walks of every peer's presence through a closure, each
// introducer's IPv4 resolved by AddrOnDay from segment 0. New's index is
// held to it slice for slice.
func referenceIndex(n *Network) (activeByDay [][]int, introducersByDay []introducerPool) {
	eachActiveDay := func(fn func(p *Peer, d int, introducer bool)) {
		for _, p := range n.Peers {
			introducer := p.Status == StatusKnownIP && p.Reachable
			for i, on := range p.Presence {
				if d := p.StartDay + i; on && d >= 0 && d < n.cfg.Days {
					fn(p, d, introducer)
				}
			}
		}
	}
	active := make([]int, n.cfg.Days)
	introducers := make([]int, n.cfg.Days)
	eachActiveDay(func(_ *Peer, d int, introducer bool) {
		active[d]++
		if introducer {
			introducers[d]++
		}
	})
	activeByDay = make([][]int, n.cfg.Days)
	introducersByDay = make([]introducerPool, n.cfg.Days)
	for d := range activeByDay {
		activeByDay[d] = make([]int, 0, active[d])
		introducersByDay[d] = introducerPool{
			peers: make([]*Peer, 0, introducers[d]),
			v4:    make([]netip.Addr, 0, introducers[d]),
		}
	}
	eachActiveDay(func(p *Peer, d int, introducer bool) {
		activeByDay[d] = append(activeByDay[d], p.Index)
		if introducer {
			pool := &introducersByDay[d]
			v4, _ := p.AddrOnDay(d)
			pool.peers = append(pool.peers, p)
			pool.v4 = append(pool.v4, v4)
		}
	})
	return activeByDay, introducersByDay
}

// checkIndexMatchesReference fails t unless n's active sets and
// introducer pools equal referenceIndex's, slice for slice.
func checkIndexMatchesReference(t *testing.T, n *Network) {
	t.Helper()
	active, intros := referenceIndex(n)
	if len(n.activeByDay) != len(active) || len(n.introducersByDay) != len(intros) {
		t.Fatalf("index covers %d/%d days, reference %d/%d",
			len(n.activeByDay), len(n.introducersByDay), len(active), len(intros))
	}
	for d := range active {
		if !slices.Equal(n.activeByDay[d], active[d]) {
			t.Fatalf("day %d: active set differs from the reference", d)
		}
		got, want := n.introducersByDay[d], intros[d]
		if !slices.Equal(got.peers, want.peers) || !slices.Equal(got.v4, want.v4) {
			t.Fatalf("day %d: introducer pool differs from the reference", d)
		}
	}
}

// TestIndexMatchesReference: the single counted pass builds what the
// two-pass walk did, at three seeds and on a horizon so short that most
// spans and schedules are clamped by it.
func TestIndexMatchesReference(t *testing.T) {
	for _, cfg := range []Config{
		{Seed: 2018, Days: 45, TargetDailyPeers: 1500},
		{Seed: 424242, Days: 45, TargetDailyPeers: 1500},
		{Seed: 7, Days: 20, TargetDailyPeers: 1500},
		{Seed: 11, Days: 3, TargetDailyPeers: 1500},
	} {
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkIndexMatchesReference(t, n)
	}
}

// BenchmarkNetworkNew builds a network at paper scale (0.1 scale under
// -short), 45 days, reporting allocations.
func BenchmarkNetworkNew(b *testing.B) {
	peers := 30500
	if testing.Short() {
		peers = 3050
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(Config{Seed: 2018, Days: 45, TargetDailyPeers: peers}); err != nil {
			b.Fatal(err)
		}
	}
}
