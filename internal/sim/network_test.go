package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"net/netip"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"github.com/i2pstudy/i2pstudy/internal/geo"
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
// draw columns: everything New builds. Narrow fields are read back as the
// values they stand for (an index as an int, address bytes as a
// netip.Addr) and fed at the widths the digest has always used, so a
// change of storage alone leaves it unchanged.
func networkDigest(n *Network) string {
	d := &digester{h: sha256.New()}
	d.int(len(n.Peers))
	for i, p := range n.Peers {
		d.int(int(p.Index))
		d.h.Write(p.ID[:])
		d.int(int(p.Profile.Class))
		d.int(int(p.Profile.SpanDays))
		d.f64(p.Profile.OnOn)
		d.f64(p.Profile.OffOn)
		d.int(int(p.IPProfile.Mode))
		d.f64(p.IPProfile.RotationMeanDays)
		d.int(int(p.IPProfile.ASFanout))
		d.bool(p.IPProfile.IPv6)
		d.int(int(p.Status))
		d.str(geo.UnpackCountry(p.Country))
		d.int(len(n.asPool(i)))
		for _, asn := range n.asPool(i) {
			d.u64(uint64(asn))
		}
		d.int(int(p.Class))
		d.bool(p.LegacyO)
		d.int(int(p.RateKBps))
		d.bool(p.Floodfill)
		d.bool(p.Reachable)
		d.int(int(p.StartDay))
		d.int(int(p.presenceDays))
		for day := range int(p.presenceDays) {
			d.bool(n.ActiveOn(i, int(p.StartDay)+day))
		}
		d.bool(p.WellExposed)
		d.f64(n.drawExposure[i])
		sched := n.schedule(i)
		d.int(len(sched))
		for i := range sched {
			v4, v6 := sched[i].addrs()
			d.int(int(sched[i].fromDay))
			d.u64(uint64(sched[i].asn))
			d.addr(v4)
			d.addr(v6)
		}
		rots := n.sameDayRotations(i)
		d.int(len(rots))
		for _, r := range rots {
			d.addr(addr4(r.v4))
		}
		d.int(len(rots))
		for _, r := range rots {
			d.u64(uint64(r.asn))
		}
	}
	d.int(n.Days())
	for day := range n.Days() {
		active := n.ActivePeers(day)
		d.int(len(active))
		for _, i := range active {
			d.int(int(i))
		}
	}
	d.int(n.Days())
	for day := range n.Days() {
		pool := n.introducerPool(day)
		d.int(len(pool.peers))
		for i, idx := range pool.peers {
			d.int(int(idx))
			d.addr(addr4(pool.v4[i]))
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

// referencePool is an introducer pool in the layout it had before the
// columns were narrowed: the peers' indexes as ints and their netip.Addr
// IPv4s.
type referencePool struct {
	peers []int
	v4    []netip.Addr
}

// referenceIndex is Network.index as it stood before the single counted
// pass and the narrow columns: two walks of every peer's presence through
// a closure into []int active sets and pointer pools, each introducer's
// IPv4 resolved by AddrOnDay from segment 0. New's index is held to it
// entry for entry.
func referenceIndex(n *Network) (activeByDay [][]int, introducersByDay []referencePool) {
	eachActiveDay := func(fn func(idx, d int, introducer bool)) {
		for idx, p := range n.Peers {
			introducer := p.Status == StatusKnownIP && p.Reachable
			presence := n.presence(idx)
			for i := range int(p.presenceDays) {
				if d := int(p.StartDay) + i; presence[i>>5]>>(i&31)&1 != 0 && d >= 0 && d < n.cfg.Days {
					fn(idx, d, introducer)
				}
			}
		}
	}
	active := make([]int, n.cfg.Days)
	introducers := make([]int, n.cfg.Days)
	eachActiveDay(func(_, d int, introducer bool) {
		active[d]++
		if introducer {
			introducers[d]++
		}
	})
	activeByDay = make([][]int, n.cfg.Days)
	introducersByDay = make([]referencePool, n.cfg.Days)
	for d := range activeByDay {
		activeByDay[d] = make([]int, 0, active[d])
		introducersByDay[d] = referencePool{
			peers: make([]int, 0, introducers[d]),
			v4:    make([]netip.Addr, 0, introducers[d]),
		}
	}
	eachActiveDay(func(idx, d int, introducer bool) {
		activeByDay[d] = append(activeByDay[d], idx)
		if introducer {
			pool := &introducersByDay[d]
			v4, _ := n.AddrOnDay(idx, d)
			pool.peers = append(pool.peers, idx)
			pool.v4 = append(pool.v4, v4)
		}
	})
	return activeByDay, introducersByDay
}

// checkIndexMatchesReference fails t unless n's active sets and
// introducer pools equal referenceIndex's entry for entry: the same peer
// indexes, and IPv4 bytes that are the reference address's (zero where
// it is invalid).
func checkIndexMatchesReference(t *testing.T, n *Network) {
	t.Helper()
	active, intros := referenceIndex(n)
	if len(n.activeByDay) != len(active) || len(n.introducersByDay) != len(intros) {
		t.Fatalf("index covers %d/%d days, reference %d/%d",
			len(n.activeByDay), len(n.introducersByDay), len(active), len(intros))
	}
	for d := range active {
		got := n.ActivePeers(d)
		if len(got) != len(active[d]) {
			t.Fatalf("day %d: %d active peers, reference %d", d, len(got), len(active[d]))
		}
		for j, idx := range got {
			if int(idx) != active[d][j] {
				t.Fatalf("day %d position %d: active peer %d, reference %d", d, j, idx, active[d][j])
			}
		}
		pool, want := n.introducerPool(d), intros[d]
		if len(pool.peers) != len(want.peers) || len(pool.v4) != len(want.v4) {
			t.Fatalf("day %d: pool of %d peers and %d IPv4s, reference %d", d, len(pool.peers), len(pool.v4), len(want.peers))
		}
		if !slices.Equal(n.Introducers(d), pool.peers) {
			t.Fatalf("day %d: Introducers differs from the pool", d)
		}
		for i, idx := range pool.peers {
			var want4 [4]byte
			if want.v4[i].IsValid() {
				want4 = want.v4[i].As4()
			}
			if int(idx) != want.peers[i] || pool.v4[i] != want4 || addr4(pool.v4[i]) != want.v4[i] {
				t.Fatalf("day %d pool position %d: peer %d at %v, reference peer %d at %v",
					d, i, idx, pool.v4[i], want.peers[i], want.v4[i])
			}
		}
	}
}

// checkNoZeroAddrs fails t if any address n generated is all zero bytes:
// every known-IP segment carries an IPv4, and an IPv6 exactly when the
// peer publishes one, so a zero there could only be 0.0.0.0 or :: drawn
// and then misread as "none" by the zero sentinels.
func checkNoZeroAddrs(t *testing.T, n *Network) {
	t.Helper()
	for idx, p := range n.Peers {
		for i, seg := range n.schedule(idx) {
			if seg.v4 == ([4]byte{}) {
				t.Fatalf("peer %d segment %d: IPv4 0.0.0.0", p.Index, i)
			}
			if (seg.v6 == [16]byte{}) == p.IPProfile.IPv6 {
				t.Fatalf("peer %d segment %d: IPv6 %v for a peer with IPv6 %v", p.Index, i, seg.v6, p.IPProfile.IPv6)
			}
		}
		for i, r := range n.sameDayRotations(idx) {
			if r.v4 == ([4]byte{}) {
				t.Fatalf("peer %d rotation %d: IPv4 0.0.0.0", p.Index, i)
			}
		}
	}
}

// TestIndexMatchesReference: the single counted pass over narrow columns
// builds what the two-pass walk over []int and pointer pools did, at
// three seeds and on horizons so short that most spans and schedules are
// clamped by them, and no address it stores collides with the zero
// sentinel.
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
		checkNoZeroAddrs(t, n)
	}
}

// hasPointer reports whether a value of type t holds anything the GC
// scans: a pointer, slice, string, map, interface, channel or func,
// directly or inside an array or struct field.
func hasPointer(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointer(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if hasPointer(t.Field(i).Type) {
				return true
			}
		}
		return false
	default:
		return true
	}
}

// TestNetworkColumnsPointerFree: what the columns New fills hold — the
// day columns' peer indexes, the introducer pools' indexes and IPv4s,
// and the word slab with the address-schedule segments and same-day
// rotations the peers' windows store — is nothing the GC must scan, and
// a segment stays 28 bytes and a rotation 8, whole words of the window.
func TestNetworkColumnsPointerFree(t *testing.T) {
	if !hasPointer(reflect.TypeFor[netip.Addr]()) || !hasPointer(reflect.TypeFor[*Peer]()) {
		t.Fatal("hasPointer misses the pointer in a netip.Addr or a *Peer")
	}
	var n Network
	columns := map[string]reflect.Type{
		"day column":        reflect.TypeOf(n.activeByDay).Elem().Elem(),
		"word slab chunk":   reflect.TypeOf(n.words.chunks).Elem().Elem(),
		"address schedule":  reflect.TypeOf(n.schedule).Out(0).Elem(),
		"same-day rotation": reflect.TypeOf(n.sameDayRotations).Out(0).Elem(),
	}
	pool := reflect.TypeFor[introducerPool]()
	for i := range pool.NumField() {
		f := pool.Field(i)
		if f.Type.Kind() != reflect.Slice {
			t.Fatalf("introducerPool.%s is a %v, not a window of a column", f.Name, f.Type)
		}
		columns["introducerPool."+f.Name] = f.Type.Elem()
	}
	for name, elem := range columns {
		if hasPointer(elem) {
			t.Errorf("%s holds %v, which the GC scans", name, elem)
		}
	}
	for typ, size := range map[reflect.Type]uintptr{reflect.TypeFor[ipAssignment](): 28, reflect.TypeFor[rotation](): 8} {
		if typ.Size() != size || typ.Align() != 4 {
			t.Errorf("%v is %d bytes aligned to %d, want %d bytes of 4-byte words", typ, typ.Size(), typ.Align(), size)
		}
	}
}

// TestPeerLayout pins what a peer's row costs: at most 112 bytes, the
// largest single part of a resident network, and no pointer, slice,
// string or map for the collector to walk, so Network.Peers is one
// allocation it never scans. A field that widens, or a per-peer slice
// that comes back, fails here.
func TestPeerLayout(t *testing.T) {
	if size := unsafe.Sizeof(Peer{}); size > 112 {
		t.Fatalf("Peer is %d bytes, want at most 112", size)
	}
	typ := reflect.TypeFor[Peer]()
	for i := range typ.NumField() {
		if f := typ.Field(i); hasPointer(f.Type) {
			t.Errorf("Peer.%s is a %v, which the GC scans", f.Name, f.Type)
		}
	}
}

// newNetworkBytes is what a 0.1-scale, 45-day New at seed 2018 allocates,
// measured on go1.24/amd64. TestNewAllocatedBytes allows 3% above it: the
// geo tables (≈ 3.6% of it) are maps, whose layout differs between Go
// releases.
const newNetworkBytes = 2_870_000

// TestNewAllocatedBytes pins the bytes a 0.1-scale New allocates, so a
// column that widens again, or a per-peer allocation that creeps back,
// fails here rather than in a benchmark nobody reads.
func TestNewAllocatedBytes(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := New(Config{Seed: 2018, Days: 45, TargetDailyPeers: 3050}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("New allocated %d bytes", got)
	if limit := uint64(newNetworkBytes + 3*newNetworkBytes/100); got > limit {
		t.Fatalf("New allocated %d bytes, want at most %d (%d + 3%%)", got, limit, newNetworkBytes)
	}
}

// BenchmarkNetworkNew builds a network at paper scale (0.1 scale under
// -short), 45 days, reporting allocations and, as live-MB/op, the heap
// the last network built keeps once the GC has run: what a resident
// network costs.
func BenchmarkNetworkNew(b *testing.B) {
	peers := 30500
	if testing.Short() {
		peers = 3050
	}
	b.ReportAllocs()
	var n *Network
	for i := 0; i < b.N; i++ {
		var err error
		if n, err = New(Config{Seed: 2018, Days: 45, TargetDailyPeers: peers}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var with, without runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&with)
	runtime.KeepAlive(n)
	runtime.GC()
	runtime.ReadMemStats(&without)
	b.ReportMetric(float64(with.HeapAlloc-without.HeapAlloc)/1e6, "live-MB/op")
}
