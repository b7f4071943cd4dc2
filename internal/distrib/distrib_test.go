package distrib

import (
	"slices"
	"sync"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/censor"
	"github.com/i2pstudy/i2pstudy/internal/netdb"
	"github.com/i2pstudy/i2pstudy/internal/reseed"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

var (
	netOnce sync.Once
	netVal  *sim.Network
	netErr  error
)

// network returns the shared small test network (building it costs a few
// hundred ms; every test reads it concurrently-safely).
func network(t testing.TB) *sim.Network {
	t.Helper()
	netOnce.Do(func() {
		netVal, netErr = sim.New(sim.Config{Seed: 42, Days: 40, TargetDailyPeers: 1200})
	})
	if netErr != nil {
		t.Fatal(netErr)
	}
	return netVal
}

func testBackend(t *testing.T, dists []Distributor) *Backend {
	t.Helper()
	b, err := NewBackend(network(t), BackendConfig{
		Strategy:     censor.BridgeCombined,
		Day:          10,
		MaxResources: 160,
		Seed:         7,
	}, dists)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBackendPartitioning(t *testing.T) {
	dists := DefaultDistributors()
	b := testBackend(t, dists)
	if b.PoolSize() == 0 {
		t.Fatal("empty backend pool")
	}
	if b.PoolSize() > 160 {
		t.Fatalf("pool %d exceeds MaxResources", b.PoolSize())
	}

	seen := make(map[int]string)
	total := 0
	for _, d := range dists {
		part := b.Partition(d.Name())
		if part == nil {
			t.Fatalf("no partition for %s", d.Name())
		}
		if part.Len() == 0 {
			t.Errorf("%s received an empty partition of a %d-resource pool", d.Name(), b.PoolSize())
		}
		total += part.Len()
		for _, r := range part.Resources() {
			if prev, dup := seen[r.Peer]; dup {
				t.Fatalf("peer %d assigned to both %s and %s", r.Peer, prev, d.Name())
			}
			seen[r.Peer] = d.Name()
			if !b.InPool(r.Peer) {
				t.Fatalf("partitioned peer %d not marked in pool", r.Peer)
			}
			if r.Record == nil {
				t.Fatalf("resource %d has no materialized record", r.Peer)
			}
		}
	}
	if total != b.PoolSize() {
		t.Fatalf("partitions cover %d resources, pool has %d", total, b.PoolSize())
	}
}

// TestBackendPartitionStability is the hashring invariant: assignment
// depends only on (resource key, distributor name set) — reordering the
// distributor list changes nothing, and removing one distributor only
// reassigns its own resources.
func TestBackendPartitionStability(t *testing.T) {
	all := DefaultDistributors()
	b1 := testBackend(t, all)
	reordered := []Distributor{all[3], all[1], all[0], all[2]}
	b2 := testBackend(t, reordered)
	for _, d := range all {
		p1, p2 := b1.Partition(d.Name()), b2.Partition(d.Name())
		if p1.Len() != p2.Len() {
			t.Fatalf("%s partition size changed under reordering: %d vs %d", d.Name(), p1.Len(), p2.Len())
		}
		for i, r := range p1.Resources() {
			if p2.Resources()[i].Peer != r.Peer {
				t.Fatalf("%s partition content changed under reordering", d.Name())
			}
		}
	}

	// Drop the email frontend: survivors keep everything they had.
	survivors := []Distributor{all[0], all[2], all[3]}
	b3 := testBackend(t, survivors)
	owner3 := make(map[int]string)
	for _, d := range survivors {
		for _, r := range b3.Partition(d.Name()).Resources() {
			owner3[r.Peer] = d.Name()
		}
	}
	for _, d := range survivors {
		for _, r := range b1.Partition(d.Name()).Resources() {
			if owner3[r.Peer] != d.Name() {
				t.Fatalf("peer %d moved from %s to %s when an unrelated distributor left",
					r.Peer, d.Name(), owner3[r.Peer])
			}
		}
	}
}

// TestCapResourcesStability: the MaxResources sample keeps the hashring
// churn property — removing any one pool resource displaces at most the
// sample's boundary resource, never reshuffling the rest.
func TestCapResourcesStability(t *testing.T) {
	pool := make([]Resource, 400)
	for i := range pool {
		pool[i] = Resource{Peer: i, Key: mix(0xF00D, uint64(i))}
	}
	const sampleCap = 100
	base := make(map[int]bool)
	for _, r := range capResources(append([]Resource(nil), pool...), sampleCap) {
		base[r.Peer] = true
	}
	if len(base) != sampleCap {
		t.Fatalf("sample holds %d resources, want %d", len(base), sampleCap)
	}
	for _, drop := range []int{0, 57, 399} {
		churned := make([]Resource, 0, len(pool)-1)
		for _, r := range pool {
			if r.Peer != drop {
				churned = append(churned, r)
			}
		}
		diff := 0
		kept := capResources(churned, sampleCap)
		for _, r := range kept {
			if !base[r.Peer] {
				diff++
			}
		}
		if len(kept) != sampleCap || diff > 1 {
			t.Fatalf("dropping peer %d replaced %d sample members, want at most 1", drop, diff)
		}
	}
	// No-op cases.
	if got := capResources(pool[:50], sampleCap); len(got) != 50 {
		t.Fatal("under-cap pool was truncated")
	}
	if got := capResources(pool, 0); len(got) != len(pool) {
		t.Fatal("zero cap truncated the pool")
	}
}

// TestPoolKeysDistinct: at both bench seeds no two peers share a ring key
// or a selection key, so no pool the backend draws holds a tie, and the
// cap and ring sorts order it one way whatever the sort algorithm. The
// whole network is checked, a superset of every strategy's pool on every
// day (paper scale outside -short).
func TestPoolKeysDistinct(t *testing.T) {
	peers := 30500
	if testing.Short() {
		peers = 3050
	}
	for _, seed := range []uint64{2018, 424242} {
		n, err := sim.New(sim.Config{Seed: seed, Days: 45, TargetDailyPeers: peers})
		if err != nil {
			t.Fatal(err)
		}
		keys := make(map[uint64]int, len(n.Peers))
		sels := make(map[uint64]int, len(n.Peers))
		for i, p := range n.Peers {
			key := keyOf(p.ID)
			if other, ok := keys[key]; ok {
				t.Fatalf("seed %d: peers %d and %d share ring key %#x", seed, other, i, key)
			}
			keys[key] = i
			sel := mix(key, selectionSalt)
			if other, ok := sels[sel]; ok {
				t.Fatalf("seed %d: peers %d and %d share selection key %#x", seed, other, i, sel)
			}
			sels[sel] = i
		}
	}
}

func TestPartitionGetMany(t *testing.T) {
	b := testBackend(t, DefaultDistributors())
	part := b.Partition("https")
	if part.Len() < 3 {
		t.Skip("partition too small for the wrap test")
	}
	a := part.GetMany(12345, 3)
	bb := part.GetMany(12345, 3)
	if len(a) != 3 {
		t.Fatalf("GetMany returned %d resources", len(a))
	}
	for i := range a {
		if a[i].Peer != bb[i].Peer {
			t.Fatal("GetMany is not deterministic")
		}
	}
	// Wrapping: a key above the largest resource key wraps to the start.
	last := part.Resources()[part.Len()-1]
	wrapped := part.GetMany(last.Key+1, 2)
	if wrapped[0].Peer != part.Resources()[0].Peer {
		t.Fatal("GetMany did not wrap around the ring")
	}
	// Requests never exceed the partition.
	if got := part.GetMany(1, part.Len()+10); len(got) != part.Len() {
		t.Fatalf("oversized request returned %d of %d", len(got), part.Len())
	}
}

// referenceGetMany is the arc walk GetMany replaced: n resources copied
// out one at a time, modulo the partition size.
func referenceGetMany(p *Partition, key uint64, n int) []Resource {
	res := p.Resources()
	if len(res) == 0 {
		return nil
	}
	if n > len(res) {
		n = len(res)
	}
	i := p.SlotOf(key)
	out := make([]Resource, 0, n)
	for j := 0; j < n; j++ {
		out = append(out, res[(i+j)%len(res)])
	}
	return out
}

// TestGetManyMatchesReference holds the window GetMany returns to the
// modulo walk for every slot of every partition, wrapping arcs and
// oversized requests included, and checks that the window cannot be
// used to write into the partition: its capacity is its length, so an
// append copies.
func TestGetManyMatchesReference(t *testing.T) {
	b := testBackend(t, DefaultDistributors())
	parts := []*Partition{newPartition(b, "empty", nil)}
	for _, d := range DefaultDistributors() {
		parts = append(parts, b.Partition(d.Name()))
	}
	for _, part := range parts {
		res := part.Resources()
		before := slices.Clone(res)
		if got := part.GetMany(1, 3); len(res) == 0 && got != nil {
			t.Fatalf("%s: empty partition served %v", part.dist, got)
		}
		for slot := range res {
			key := res[slot].Key
			for _, n := range []int{1, 3, part.Len(), part.Len() + 10} {
				arc, want := part.GetMany(key, n), referenceGetMany(part, key, n)
				if !slices.Equal(arc, want) {
					t.Fatalf("%s slot %d n %d: arc %v, reference %v", part.dist, slot, n, arc, want)
				}
				if cap(arc) != len(arc) {
					t.Fatalf("%s slot %d n %d: arc has cap %d, len %d", part.dist, slot, n, cap(arc), len(arc))
				}
				_ = append(arc, Resource{Peer: -1})
				if !slices.Equal(res, before) || !slices.Equal(part.ring, append(before, before...)) {
					t.Fatalf("%s slot %d n %d: appending to an arc changed the partition", part.dist, slot, n)
				}
				if next := part.GetMany(key, n+1); !slices.Equal(next, referenceGetMany(part, key, n+1)) {
					t.Fatalf("%s slot %d n %d: appending to an arc changed the next arc", part.dist, slot, n)
				}
			}
		}
	}
}

func TestRingDistRotation(t *testing.T) {
	api := testBackend(t, DefaultDistributors()).API()
	serve := func(dist string, id uint64, day int) []Resource {
		t.Helper()
		h, err := api.Serve(Request{Dist: dist, ID: id, Day: day})
		if err != nil {
			t.Fatal(err)
		}
		return h.Resources
	}
	h1 := serve("https", 99, 10)
	h2 := serve("https", 99, 12) // same weekly bucket
	if len(h1) == 0 {
		t.Fatal("empty handout")
	}
	for i := range h1 {
		if h1[i].Peer != h2[i].Peer {
			t.Fatal("handout not sticky within a rotation bucket")
		}
	}

	// Manual reseed never rotates.
	m1 := serve("manual-reseed", 7, 10)
	m2 := serve("manual-reseed", 7, 38)
	if len(m1) == 0 || len(m1) != len(m2) {
		t.Fatalf("manual handouts differ in size: %d vs %d", len(m1), len(m2))
	}
	for i := range m1 {
		if m1[i].Peer != m2[i].Peer {
			t.Fatal("manual-reseed handout rotated")
		}
	}
}

// TestHandoutAPIServesItsBackend holds the API NewBackend builds to the
// backend it serves: it names exactly the backend's distributors, in
// construction order; for a sample of identities, days and attempts
// every distributor serves its grant's Partition.GetMany arc (nothing,
// where it grants nothing); and a distributor the backend was not built
// with is refused with an error.
func TestHandoutAPIServesItsBackend(t *testing.T) {
	ts := NewTrustSocial(TrustSocialConfig{Graph: TrustGraphConfig{Users: 60, Seed: 4}})
	dists := []Distributor{NewManualReseed(), ts, NewHTTPS(), NewEmail()}
	b := testBackend(t, dists)
	api := b.API()
	var names []string
	for _, d := range dists {
		names = append(names, d.Name())
	}
	if !slices.Equal(api.Distributors(), names) {
		t.Fatalf("API names %v, backend built with %v", api.Distributors(), names)
	}
	ids := []uint64{0xBADBADBAD}
	for i := uint64(0); i < 32; i++ {
		ids = append(ids, mix(0x617069, i), ts.Graph().Users()[i].ID) // "api"
	}
	for _, d := range dists {
		if got, ok := api.Distributor(d.Name()); !ok || got != d {
			t.Fatalf("API distributor %q = %v, %v; want the backend's", d.Name(), got, ok)
		}
		part := b.Partition(d.Name())
		served := 0
		for _, id := range ids {
			for _, day := range []int{10, 24} {
				for attempt := range 2 {
					h, err := api.Serve(Request{Dist: d.Name(), ID: id, Day: day, Attempt: attempt})
					if err != nil {
						t.Fatal(err)
					}
					if h.Distributor != d.Name() || h.Day != day {
						t.Fatalf("%s: handout echoes (%s, %d), request (%s, %d)", d.Name(), h.Distributor, h.Day, d.Name(), day)
					}
					g, ok := d.Grant(id, day, attempt)
					if !ok {
						if h.Granted || h.Key != 0 || h.Resources != nil {
							t.Fatalf("%s id %x: ungranted identity served %+v", d.Name(), id, h)
						}
						continue
					}
					if want := part.GetMany(g.Key, g.Count); !h.Granted || h.Key != g.Key || !slices.Equal(h.Resources, want) {
						t.Fatalf("%s id %x day %d attempt %d: served (%v, key %d) %v, grant's arc (key %d) %v",
							d.Name(), id, day, attempt, h.Granted, h.Key, h.Resources, g.Key, want)
					}
					served++
				}
			}
		}
		if served == 0 {
			t.Fatalf("%s granted no sampled identity", d.Name())
		}
	}
	for _, name := range []string{"social", "nope", ""} {
		if h, err := api.Serve(Request{Dist: name, ID: ids[1], Day: 10}); err == nil {
			t.Errorf("unknown distributor %q served %+v", name, h)
		}
		if _, ok := api.Distributor(name); ok {
			t.Errorf("unknown distributor %q found", name)
		}
	}
}

// TestManualReseedBundleRoundTrip holds the manual frontend to what a
// signed i2pseeds bundle can carry: every slot's arc survives
// reseed.CreateBundle and reseed.ParseBundle whole, records in arc order
// with their identities, so Serve hands out the arc itself — and for a
// sample of identities Serve returns exactly the granted arc.
func TestManualReseedBundleRoundTrip(t *testing.T) {
	b := testBackend(t, DefaultDistributors())
	part := b.Partition("manual-reseed")
	if part.Len() == 0 {
		t.Fatal("empty manual-reseed partition")
	}
	for slot, r := range part.Resources() {
		arc := part.GetMany(r.Key, 5)
		records := make([]*netdb.RouterInfo, len(arc))
		for i, res := range arc {
			records[i] = res.Record
		}
		data, err := reseed.CreateBundle(records, "trusted-friend", part.When())
		if err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		bundle, err := reseed.ParseBundle(data)
		if err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		if len(bundle.Records) != len(arc) {
			t.Fatalf("slot %d: bundle carries %d of %d records", slot, len(bundle.Records), len(arc))
		}
		for i, ri := range bundle.Records {
			if ri.Identity != arc[i].Record.Identity {
				t.Fatalf("slot %d: bundle record %d is %s, want %s", slot, i, ri.Identity.Short(), arc[i].Record.Identity.Short())
			}
		}
	}

	api := b.API()
	d, _ := api.Distributor("manual-reseed")
	for i := uint64(0); i < 64; i++ {
		id := mix(0x6d616e75616c, i) // "manual"
		h, err := api.Serve(Request{Dist: "manual-reseed", ID: id, Day: 10})
		if err != nil {
			t.Fatal(err)
		}
		g, ok := d.Grant(id, 10, 0)
		if !ok || !h.Granted || h.Key != g.Key {
			t.Fatalf("identity %d: served key %d granted %v, grant %d ok %v", i, h.Key, h.Granted, g.Key, ok)
		}
		want := part.GetMany(h.Key, 5)
		if len(h.Resources) != len(want) {
			t.Fatalf("identity %d: served %d of %d resources", i, len(h.Resources), len(want))
		}
		for j := range want {
			if h.Resources[j].Peer != want[j].Peer {
				t.Fatalf("identity %d: resource %d is peer %d, want %d", i, j, h.Resources[j].Peer, want[j].Peer)
			}
			if h.Resources[j].Record.Identity != network(t).Peers[h.Resources[j].Peer].ID {
				t.Fatal("record identity does not match the peer")
			}
		}
	}
}

func TestEnumeratorRates(t *testing.T) {
	e := Enumerator{Kind: Crawler, Budget: 25}
	var carry float64
	total := 0
	for day := 0; day < 4; day++ {
		total += e.requestsOn(40, &carry)
	}
	// 25/40 per day over 4 days = 2.5 -> 2 whole requests.
	if total != 2 {
		t.Fatalf("fractional carry yielded %d requests, want 2", total)
	}
	if n := (Enumerator{Kind: Sybil, Budget: 60}).sybilCount(8); n != 7 {
		t.Fatalf("sybilCount = %d, want 7", n)
	}
	if n := (Enumerator{Kind: Sybil, Budget: 60}).sybilCount(500); n != 0 {
		t.Fatalf("sybilCount against manual cost = %d, want 0", n)
	}
}

func TestSweepValidation(t *testing.T) {
	n := network(t)
	bad := []SweepConfig{
		{},
		{Distributors: DefaultDistributors(), Enumerators: DefaultEnumerators()},
		{Distributors: DefaultDistributors(), Days: []int{5}},
		{Enumerators: DefaultEnumerators(), Days: []int{5}},
		{Distributors: DefaultDistributors(), Enumerators: DefaultEnumerators(), Days: []int{35}, HorizonDays: 10},
		{Distributors: DefaultDistributors(), Enumerators: DefaultEnumerators(), Days: []int{5}, HorizonDays: -1},
		{Distributors: DefaultDistributors(), Enumerators: DefaultEnumerators(), Days: []int{-1}},
	}
	for i, cfg := range bad {
		if _, err := NewSweep(n, cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	if _, err := NewBackend(n, BackendConfig{Day: 5}, nil); err == nil {
		t.Error("backend without distributors accepted")
	}
	if _, err := NewBackend(n, BackendConfig{Day: 5}, []Distributor{NewHTTPS(), NewHTTPS()}); err == nil {
		t.Error("duplicate distributor accepted")
	}
}

func TestCellResultHelpers(t *testing.T) {
	r := CellResult{
		Bootstrap:  []float64{1, 0.8, 0.6},
		Survival:   []float64{1, 0.9, 0.7},
		Enumerated: []float64{0.1, 0.4, 0.8},
	}
	if r.FinalBootstrap() != 0.6 || r.FinalSurvival() != 0.7 {
		t.Fatal("final helpers wrong")
	}
	if d := r.DaysToEnumerate(0.5); d != 2 {
		t.Fatalf("DaysToEnumerate(0.5) = %d, want 2", d)
	}
	if d := r.DaysToEnumerate(0.9); d != -1 {
		t.Fatalf("DaysToEnumerate(0.9) = %d, want -1", d)
	}
	if (CellResult{}).FinalBootstrap() != 0 || (CellResult{}).FinalSurvival() != 0 {
		t.Fatal("empty result helpers wrong")
	}
}
