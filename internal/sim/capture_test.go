package sim

import (
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/i2pstudy/i2pstudy/internal/netdb"
)

// legacyRouterInfo is Peer.RouterInfoOn as it stood before it was split
// into a draw and a build: one pass over peer idx that draws and builds
// together and resolves every picked introducer (a peer index) by
// walking its schedule. It is the reference the split is held to, bit
// for bit.
func legacyRouterInfo(n *Network, idx, day int, dayTime time.Time, introducerPool []int, rng *rand.Rand) *netdb.RouterInfo {
	p := &n.Peers[idx]
	caps := netdb.Caps{
		Class:       p.Class,
		LegacyO:     p.LegacyO,
		Floodfill:   p.Floodfill,
		Reachable:   p.Status == StatusKnownIP && p.Reachable,
		Unreachable: !(p.Status == StatusKnownIP && p.Reachable),
	}
	ri := &netdb.RouterInfo{Identity: p.ID, Published: dayTime, Version: "0.9.34"}
	switch p.Status {
	case StatusKnownIP:
		v4, v6 := n.AddrOnDay(idx, day)
		port := uint16(9000 + rng.IntN(22001))
		if v4.IsValid() {
			ri.Addresses = append(ri.Addresses,
				netdb.RouterAddress{Transport: netdb.TransportNTCP, Addr: v4, Port: port},
				netdb.RouterAddress{Transport: netdb.TransportSSU, Addr: v4, Port: port})
		}
		if v6.IsValid() {
			ri.Addresses = append(ri.Addresses, netdb.RouterAddress{Transport: netdb.TransportNTCP, Addr: v6, Port: port})
		}
	case StatusFirewalled, StatusToggling:
		addr := netdb.RouterAddress{Transport: netdb.TransportSSU}
		k := 1 + rng.IntN(3)
		for i := 0; i < k && len(introducerPool) > 0; i++ {
			in := introducerPool[rng.IntN(len(introducerPool))]
			v4, _ := n.AddrOnDay(in, day)
			if !v4.IsValid() {
				continue
			}
			addr.Introducers = append(addr.Introducers, netdb.Introducer{
				Hash: n.Peers[in].ID,
				Tag:  rng.Uint32(),
				Addr: v4,
				Port: uint16(9000 + rng.IntN(22001)),
			})
		}
		ri.Addresses = append(ri.Addresses, addr)
		if p.Status == StatusToggling {
			caps.Hidden = true
		}
	case StatusHidden:
		caps.Hidden = true
	}
	ri.Caps = caps
	return ri
}

// referenceDrawInfo is drawInfo as it stood over *rand.Rand, keyed by the
// peer's Status: the reference the concrete-stream form over the class
// column is held to, draw for draw and stream position.
func referenceDrawInfo(p *Peer, pool introducerPool, rng *rand.Rand) (d Draw) {
	drawPort := func() uint16 { return uint16(minPort + rng.IntN(maxPort-minPort+1)) }
	switch p.Status {
	case StatusKnownIP:
		d.Port = drawPort()
	case StatusFirewalled, StatusToggling:
		n := 1 + rng.IntN(3)
		for i := 0; i < n && len(pool.peers) > 0; i++ {
			pick := rng.IntN(len(pool.peers))
			if pool.v4[pick] == ([4]byte{}) {
				continue
			}
			d.Intros[d.N] = IntroDraw{
				Pick: uint32(pick),
				Tag:  rng.Uint32(),
				Port: drawPort(),
			}
			d.N++
		}
	}
	return d
}

// sameState reports whether two generators stand at the same state.
func sameState(t *testing.T, a, b *rand.PCG) bool {
	t.Helper()
	as, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bs, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return slices.Equal(as, bs)
}

// TestDrawInfoMatchesReference walks every peer of the network through
// drawInfo and referenceDrawInfo on twin streams — over the day's
// introducer pool, an empty pool, and one where every other member
// publishes no IPv4, so picks are dropped — and requires equal draws and
// equal stream states after every peer.
func TestDrawInfoMatchesReference(t *testing.T) {
	n := testNetwork(t, 10)
	const day = 4
	full := n.introducerPool(day)
	if len(full.peers) < 2 {
		t.Fatalf("day %d has %d introducers", day, len(full.peers))
	}
	holey := introducerPool{peers: full.peers, v4: slices.Clone(full.v4)}
	for i := 0; i < len(holey.v4); i += 2 {
		holey.v4[i] = [4]byte{}
	}
	for _, pc := range []struct {
		name string
		pool introducerPool
	}{{"day", full}, {"empty", introducerPool{}}, {"holey", holey}} {
		pcg, ref := rand.NewPCG(3, 4), rand.NewPCG(3, 4)
		rng := rand.New(ref)
		var classes [affinityClasses]int
		lost := 0 // firewalled draws that kept no introducer
		for i := range n.Peers {
			class := n.drawClass[i]
			classes[class]++
			got, want := drawInfo(class, pc.pool, pcg), referenceDrawInfo(&n.Peers[i], pc.pool, rng)
			if got != want {
				t.Fatalf("%s pool, peer %d (class %d): drawInfo %+v, reference %+v", pc.name, i, class, got, want)
			}
			if !sameState(t, pcg, ref) {
				t.Fatalf("%s pool, peer %d (class %d): streams part after the draw", pc.name, i, class)
			}
			if class == affinityFirewalled && got.N == 0 {
				lost++
			}
		}
		for class, count := range classes {
			if count == 0 {
				t.Fatalf("network has no peer of affinity class %d", class)
			}
		}
		if pc.name != "day" && lost == 0 {
			t.Errorf("%s pool: every firewalled draw kept an introducer", pc.name)
		}
	}
}

// TestUint64nMatchesIntN holds uint64n to rand.Rand's reduction — IntN
// where n fits an int, Uint64N past it — value for value and stream
// position: at the bounds the draw uses, every power of two, n = 2^63+1
// (where about half the first products fall below the threshold) and
// random n. It also checks that the rejection loop ran.
func TestUint64nMatchesIntN(t *testing.T) {
	ns := []uint64{1, 2, 3, 22001, 1<<63 + 1}
	for k := range 64 {
		ns = append(ns, 1<<k)
	}
	pick := rand.New(rand.NewPCG(9, 9))
	for range 200 {
		ns = append(ns, pick.Uint64()>>pick.IntN(64)|1)
	}
	pcg, ref := rand.NewPCG(1, 2), rand.NewPCG(1, 2)
	rng := rand.New(ref)
	rejected := 0
	for _, n := range ns {
		for range 64 {
			one := *pcg // where a draw that takes one value leaves the stream
			one.Uint64()
			got := uint64n(pcg, n)
			var want uint64
			if n <= math.MaxInt {
				want = uint64(rng.IntN(int(n)))
			} else {
				want = rng.Uint64N(n)
			}
			if got != want {
				t.Fatalf("n=%d: uint64n %d, rand.Rand %d", n, got, want)
			}
			if !sameState(t, pcg, ref) {
				t.Fatalf("n=%d: streams part after the draw", n)
			}
			if !sameState(t, pcg, &one) {
				rejected++
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no draw took the rejection loop")
	}
}

// TestCaptureDayDrawParity: whatever subset of the day's sightings is
// already claimed, Network.RouterInfo over CaptureDay's sightings is
// exactly the records the legacy sequential materialization produced for
// the unclaimed ones, record for record; CaptureDay claims them, and
// leaves the stream where the legacy walk left it — the discarded draws
// consumed neither more nor fewer values.
func TestCaptureDayDrawParity(t *testing.T) {
	n := testNetwork(t, 12)
	claimSets := []struct {
		name    string
		claimed func(i int, p *Peer) bool
	}{
		{"none", func(int, *Peer) bool { return false }},
		{"all", func(int, *Peer) bool { return true }},
		{"every-other", func(i int, _ *Peer) bool { return i%2 == 1 }},
		{"all-but-introduced", func(_ int, p *Peer) bool {
			return p.Status != StatusFirewalled && p.Status != StatusToggling
		}},
	}
	for _, cfg := range []ObserverConfig{
		{Floodfill: true, SharedKBps: MaxSharedKBps, Seed: 1000},
		{Floodfill: false, SharedKBps: 512, Seed: 7},
	} {
		o := n.NewObserver(cfg)
		for _, day := range []int{0, 5, 11} {
			idxs := o.ObserveDay(day)
			if len(idxs) == 0 {
				t.Fatalf("observer %+v saw nothing on day %d", cfg, day)
			}
			legacy := rand.New(o.materializePCG(day))
			var pool []int
			for _, idx := range n.Introducers(day) {
				pool = append(pool, int(idx))
			}
			full := make([]*netdb.RouterInfo, 0, len(idxs))
			for _, idx := range idxs {
				full = append(full, legacyRouterInfo(n, idx, day, n.DayTime(day), pool, legacy))
			}
			legacyNext := legacy.Uint64()
			if got := o.CollectDay(day); !reflect.DeepEqual(got, full) {
				t.Fatalf("seed %d day %d: CollectDay differs from the legacy materialization", cfg.Seed, day)
			}

			for _, cs := range claimSets {
				claimed := n.NewClaimSet()
				var want []*netdb.RouterInfo
				for i, idx := range idxs {
					if cs.claimed(i, &n.Peers[idx]) {
						claimed[idx>>6] |= 1 << (idx & 63)
					} else {
						want = append(want, full[i])
					}
				}
				rng := o.materializePCG(day)
				var got []*netdb.RouterInfo
				for _, s := range o.capture(day, rng, claimed, nil) {
					if err := n.CheckSighting(day, s); err != nil {
						t.Fatalf("seed %d day %d claimed=%s: captured sighting refused: %v", cfg.Seed, day, cs.name, err)
					}
					got = append(got, n.RouterInfo(day, s))
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d day %d claimed=%s: %d records differ from the %d-record subsequence of CollectDay",
						cfg.Seed, day, cs.name, len(got), len(want))
				}
				if rng.Uint64() != legacyNext {
					t.Errorf("seed %d day %d claimed=%s: stream position differs after the walk", cfg.Seed, day, cs.name)
				}
				for _, idx := range idxs {
					if claimed[idx>>6]&(1<<(idx&63)) == 0 {
						t.Fatalf("seed %d day %d claimed=%s: peer %d seen but not claimed", cfg.Seed, day, cs.name, idx)
					}
				}
			}
		}
	}
}

// TestCheckSightingRefusesWhatTheDrawCannotProduce: a sighting passes
// only if drawInfo could have produced it for that peer on that day —
// the guard between a sighting read from disk and RouterInfo's unchecked
// indexing.
func TestCheckSightingRefusesWhatTheDrawCannotProduce(t *testing.T) {
	n := testNetwork(t, 12)
	const day = 5
	o := n.NewObserver(ObserverConfig{Floodfill: true, SharedKBps: MaxSharedKBps, Seed: 1000})
	byStatus := map[Status]Sighting{}
	var introduced Sighting
	for _, s := range o.CaptureDay(day, n.NewClaimSet(), nil) {
		if err := n.CheckSighting(day, s); err != nil {
			t.Fatalf("captured sighting refused: %v", err)
		}
		byStatus[n.Peers[s.Peer].Status] = s
		if s.N > 0 {
			introduced = s
		}
	}
	if len(byStatus) != 4 || introduced.N == 0 {
		t.Fatalf("day %d covers %d of 4 statuses, introducers drawn: %v", day, len(byStatus), introduced.N > 0)
	}
	offline := -1
	for i := range n.Peers {
		if !n.ActiveOn(i, day) {
			offline = i
			break
		}
	}
	edit := func(s Sighting, f func(*Sighting)) Sighting { f(&s); return s }
	known, hidden := byStatus[StatusKnownIP], byStatus[StatusHidden]
	for name, s := range map[string]Sighting{
		"peer below range":            edit(known, func(s *Sighting) { s.Peer = -1 }),
		"peer past range":             edit(known, func(s *Sighting) { s.Peer = int32(len(n.Peers)) }),
		"peer offline":                edit(known, func(s *Sighting) { s.Peer = int32(offline) }),
		"known-IP port below range":   edit(known, func(s *Sighting) { s.Port = 8999 }),
		"known-IP port past range":    edit(known, func(s *Sighting) { s.Port = 31001 }),
		"known-IP with an introducer": edit(known, func(s *Sighting) { s.N, s.Intros = introduced.N, introduced.Intros }),
		"firewalled with a port":      edit(introduced, func(s *Sighting) { s.Port = 9000 }),
		"four introducers":            edit(introduced, func(s *Sighting) { s.N = 4 }),
		"pick past the pool":          edit(introduced, func(s *Sighting) { s.Intros[0].Pick = uint32(len(n.Introducers(day))) }),
		"introducer port past range":  edit(introduced, func(s *Sighting) { s.Intros[0].Port = 31001 }),
		"hidden with a port":          edit(hidden, func(s *Sighting) { s.Port = 9000 }),
		"hidden with an introducer":   edit(hidden, func(s *Sighting) { s.N, s.Intros = introduced.N, introduced.Intros }),
	} {
		if err := n.CheckSighting(day, s); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestCoverageTableMatchesPerPeerForm pins the per-observer gamma table
// the daily draw indexes to the public per-peer form and to the
// expression the per-peer form used before the table existed, with ==
// on the floats: one differing bit would move an observation draw.
func TestCoverageTableMatchesPerPeerForm(t *testing.T) {
	n := testNetwork(t, 10)
	byClass := map[int]*Peer{}
	for i := range n.Peers {
		if p := &n.Peers[i]; byClass[p.affinityClass()] == nil {
			byClass[p.affinityClass()] = p
		}
	}
	if len(byClass) != affinityClasses {
		t.Fatalf("network covers %d of %d affinity classes", len(byClass), affinityClasses)
	}
	legacy := func(o *Observer, p *Peer) float64 {
		params := n.obs
		var affinity float64
		switch {
		case p.TunnelEligible():
			affinity = params.RelayAffinity
		case p.Status == StatusKnownIP:
			affinity = params.CreatorAffinity
		case p.Status == StatusFirewalled || p.Status == StatusToggling:
			affinity = params.FirewalledAffinity
		default:
			affinity = params.HiddenAffinity
		}
		f := params.TunnelCoverageMax * (1 - math.Exp(-float64(o.Cfg.SharedKBps)/params.TunnelSatKBps))
		store := 0.0
		if o.Cfg.Floodfill {
			f *= params.FFTunnelPenalty
			store = params.StoreCoverage
		}
		tun := f * affinity
		return math.Max(0, math.Min(1, 1-(1-params.DLMCoverage)*(1-store)*(1-tun)))
	}
	for _, floodfill := range []bool{true, false} {
		for _, kbps := range []int{128, 1024, MaxSharedKBps} {
			o := n.NewObserver(ObserverConfig{Floodfill: floodfill, SharedKBps: kbps, Seed: 1})
			for class, p := range byClass {
				if got, want := o.gamma[class], legacy(o, p); got != want {
					t.Errorf("floodfill=%v %d KB/s class %d: table %v, legacy expression %v", floodfill, kbps, class, got, want)
				}
				if got := referenceCoverageFactor(o, p); got != o.gamma[class] {
					t.Errorf("floodfill=%v %d KB/s class %d: referenceCoverageFactor %v, table %v", floodfill, kbps, class, got, o.gamma[class])
				}
				if got, want := referenceObserveProbability(o, p), o.gamma[class]*n.drawExposure[p.Index]; got != want {
					t.Errorf("floodfill=%v %d KB/s class %d: referenceObserveProbability %v, table form %v", floodfill, kbps, class, got, want)
				}
			}
		}
	}
}

// TestDrawColumnsMatchPeers pins the class column the daily draw reads
// to the peers it was filled from, and the draw over the columns to the
// per-peer form it replaced: the same sightings in the same order.
func TestDrawColumnsMatchPeers(t *testing.T) {
	n := testNetwork(t, 10)
	if len(n.drawClass) != len(n.Peers) || len(n.drawExposure) != len(n.Peers) {
		t.Fatalf("columns hold %d and %d entries for %d peers", len(n.drawClass), len(n.drawExposure), len(n.Peers))
	}
	observers := []*Observer{
		n.NewObserver(ObserverConfig{Floodfill: true, SharedKBps: MaxSharedKBps, Seed: 1000}),
		n.NewObserver(ObserverConfig{Floodfill: false, SharedKBps: 512, Seed: 7}),
	}
	for i := range n.Peers {
		p := &n.Peers[i]
		if int(p.Index) != i {
			t.Fatalf("peer at %d carries index %d", i, p.Index)
		}
		if int(n.drawClass[i]) != p.affinityClass() {
			t.Fatalf("peer %d: class column %d, affinityClass %d", i, n.drawClass[i], p.affinityClass())
		}
		for _, o := range observers {
			if got, want := o.gamma[n.drawClass[i]]*n.drawExposure[i], referenceObserveProbability(o, p); got != want {
				t.Fatalf("peer %d: dense product %v, referenceObserveProbability %v", i, got, want)
			}
		}
	}
	for _, o := range observers {
		for day := 0; day < n.Days(); day++ {
			rng := rand.New(o.dayPCG(day))
			var want []int
			for _, idx := range n.ActivePeers(day) {
				if rng.Float64() < o.gamma[n.Peers[idx].affinityClass()]*n.drawExposure[idx] {
					want = append(want, int(idx))
				}
			}
			if got := o.ObserveDay(day); !slices.Equal(got, want) {
				t.Fatalf("seed %d day %d: %d sightings over the columns, %d over the peers", o.Cfg.Seed, day, len(got), len(want))
			}
		}
	}
}

// TestDrawDayMatchesReference holds the draw kernel to the per-peer
// rng.Float64() loop it replaced, draw for draw and RNG position: the
// positions DrawDay keeps resolve to exactly that loop's sightings,
// ascending; the PCG ends where the reference Rand ends; a non-empty out
// keeps its prefix; and a day with nobody active returns out untouched.
func TestDrawDayMatchesReference(t *testing.T) {
	n := testNetwork(t, 10)
	observers := []*Observer{
		n.NewObserver(ObserverConfig{Floodfill: true, SharedKBps: MaxSharedKBps, Seed: 1000}),
		n.NewObserver(ObserverConfig{Floodfill: false, SharedKBps: 512, Seed: 7}),
	}
	prefix := []int32{-7, 1 << 30}
	for _, o := range observers {
		for day := 0; day < n.Days(); day++ {
			active := n.ActivePeers(day)
			rng := rand.New(o.dayPCG(day))
			var want []int32
			for _, idx := range active {
				if rng.Float64() < o.gamma[n.Peers[idx].affinityClass()]*n.drawExposure[idx] {
					want = append(want, idx)
				}
			}
			pcg := o.dayPCG(day)
			got := o.drawDay(day, pcg, slices.Clone(prefix))
			if !slices.Equal(got[:len(prefix)], prefix) {
				t.Fatalf("seed %d day %d: prefix %v became %v", o.Cfg.Seed, day, prefix, got[:len(prefix)])
			}
			pos := got[len(prefix):]
			if !slices.IsSorted(pos) {
				t.Fatalf("seed %d day %d: positions not ascending", o.Cfg.Seed, day)
			}
			seen := make([]int32, len(pos))
			for i, j := range pos {
				seen[i] = active[j]
			}
			if !slices.Equal(seen, want) {
				t.Fatalf("seed %d day %d: %d sightings from the kernel, %d from the reference loop", o.Cfg.Seed, day, len(seen), len(want))
			}
			if g, w := pcg.Uint64(), rng.Uint64(); g != w {
				t.Fatalf("seed %d day %d: generator left at %#x, reference at %#x", o.Cfg.Seed, day, g, w)
			}
			if again := o.DrawDay(day, nil); !slices.Equal(again, pos) {
				t.Fatalf("seed %d day %d: DrawDay differs from the kernel over its own generator", o.Cfg.Seed, day)
			}
		}
		for _, day := range []int{-1, n.Days(), n.Days() + 3} {
			out := slices.Clone(prefix)
			got := o.DrawDay(day, out)
			if len(got) != len(out) || &got[0] != &out[0] || !slices.Equal(got, prefix) {
				t.Fatalf("seed %d day %d: out-of-range day touched out: %v", o.Cfg.Seed, day, got)
			}
			if got := o.DrawDay(day, nil); got != nil {
				t.Fatalf("seed %d day %d: out-of-range day appended %v", o.Cfg.Seed, day, got)
			}
		}
	}
}

// TestUnionObserveDayFirstSeenOrder holds a fleet's union counted
// through ClaimSet.Claim, observers in order, to the first sightings
// of their ObserveDay lists kept through a map: the same peers in the
// same order. A second pass claims nothing, and no observers claim
// no peer.
func TestUnionObserveDayFirstSeenOrder(t *testing.T) {
	n := testNetwork(t, 10)
	observers := []*Observer{
		n.NewObserver(ObserverConfig{Floodfill: true, SharedKBps: 128, Seed: 1}),
		n.NewObserver(ObserverConfig{Floodfill: false, SharedKBps: 1024, Seed: 2}),
		n.NewObserver(ObserverConfig{Floodfill: false, SharedKBps: MaxSharedKBps, Seed: 3}),
	}
	const day = 4
	seen := map[int]bool{}
	var want []int
	for _, o := range observers {
		for _, idx := range o.ObserveDay(day) {
			if !seen[idx] {
				seen[idx] = true
				want = append(want, idx)
			}
		}
	}
	union := func(fleet []*Observer, claimed ClaimSet) []int {
		var got []int
		for _, o := range fleet {
			for _, idx := range o.ObserveDay(day) {
				if claimed.Claim(idx) {
					got = append(got, idx)
				}
			}
		}
		return got
	}
	claimed := n.NewClaimSet()
	if got := union(observers, claimed); !slices.Equal(got, want) {
		t.Fatalf("union of %d peers differs from the %d first sightings", len(got), len(want))
	}
	if got := union(observers, claimed); got != nil {
		t.Fatalf("a second pass claimed %d peers already in the union", len(got))
	}
	if got := union(nil, n.NewClaimSet()); got != nil {
		t.Fatalf("union of no observers = %v", got)
	}
}

// BenchmarkCaptureDay measures one observer-day of the campaign's
// capture: the draw into pooled positions, the materialization stream
// for every sighting and the claims. It reuses its buffers across
// iterations, so allocs/op reads 0 once they are warm.
func BenchmarkCaptureDay(b *testing.B) {
	n := testNetwork(b, 30)
	o := n.NewObserver(ObserverConfig{Floodfill: true, SharedKBps: MaxSharedKBps, Seed: 1000})
	claimed := n.NewClaimSet()
	var recs []Sighting
	sightings := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(claimed)
		recs = o.CaptureDay(i%n.Days(), claimed, recs[:0])
		sightings += len(recs)
	}
	if sightings == 0 {
		b.Fatal("observer captured nothing")
	}
}
