package censor

import (
	"context"
	"fmt"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/sim"
)

var sharedNet *sim.Network

func network(t testing.TB) *sim.Network {
	t.Helper()
	if sharedNet != nil {
		return sharedNet
	}
	n, err := sim.New(sim.Config{Seed: 11, Days: 40, TargetDailyPeers: 2500})
	if err != nil {
		t.Fatal(err)
	}
	sharedNet = n
	return n
}

func TestNewCensorValidation(t *testing.T) {
	n := network(t)
	if _, err := newCensor(n, 0, 1); err == nil {
		t.Fatal("zero routers accepted")
	}
	c, err := newCensor(n, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Routers() != 5 {
		t.Fatalf("routers = %d", c.Routers())
	}
}

func TestBlacklistGrowsWithRoutersAndWindow(t *testing.T) {
	n := network(t)
	c, err := newCensor(n, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	day := 20
	b1 := len(blacklistMap(c, 1, 1, day))
	b5 := len(blacklistMap(c, 5, 1, day))
	b20 := len(blacklistMap(c, 20, 1, day))
	if !(b1 < b5 && b5 < b20) {
		t.Fatalf("blacklist must grow with routers: %d, %d, %d", b1, b5, b20)
	}
	b20w10 := len(blacklistMap(c, 20, 10, day))
	if b20w10 <= b20 {
		t.Fatalf("10-day window (%d) must exceed 1-day window (%d)", b20w10, b20)
	}
}

func TestVictimKnowsSubstantialNetDb(t *testing.T) {
	n := network(t)
	v := NewVictim(n, 99)
	day := 20
	addrs := knownAddressMap(v, day)
	peers := v.KnownPeers(day)
	if len(addrs) == 0 || len(peers) == 0 {
		t.Fatal("victim knows nothing")
	}
	// A stable client's netDb spans a good share of the daily network.
	daily := len(n.ActivePeers(day))
	if len(peers) < daily/3 {
		t.Fatalf("victim knows %d peers of %d daily", len(peers), daily)
	}
	// Known peers include unknown-IP peers; addresses only from known-IP.
	if len(addrs) >= len(peers) {
		t.Fatalf("addresses (%d) should be fewer than peers (%d)", len(addrs), len(peers))
	}
}

// TestFigure13Anchors reproduces the paper's headline blocking rates:
// >60% with 2 routers, ~90% with 6, >93% with 20 (1-day window); wider
// windows push rates higher.
func TestFigure13Anchors(t *testing.T) {
	n := network(t)
	day := 20
	sw, err := NewSweep(n, SweepConfig{Fleets: []int{20}, Windows: []int{1}, Days: []int{day}, SeedBase: 7})
	if err != nil {
		t.Fatal(err)
	}
	// The anchors were set against this client, not the sweep's own.
	sw.Victim = NewVictim(n, 99)
	rate := func(k, window int) float64 {
		return sw.BlockingRate(Cell{Fleet: k, Window: window, Day: day})
	}

	r2 := rate(2, 1)
	r6 := rate(6, 1)
	r20 := rate(20, 1)
	if !(r2 < r6 && r6 < r20) {
		t.Fatalf("rates must increase with routers: %.3f, %.3f, %.3f", r2, r6, r20)
	}
	if r2 < 0.60 || r2 > 0.90 {
		t.Fatalf("2-router rate = %.3f, want ~0.65–0.75", r2)
	}
	if r6 < 0.80 || r6 > 0.97 {
		t.Fatalf("6-router rate = %.3f, want ~0.90", r6)
	}
	if r20 < 0.90 {
		t.Fatalf("20-router rate = %.3f, want > 0.90 (paper: >0.95)", r20)
	}

	// Expanding the window raises rates (Figure 13's family of curves).
	r10w5 := rate(10, 5)
	r10w1 := rate(10, 1)
	if r10w5 <= r10w1 {
		t.Fatalf("5-day window (%.3f) must beat 1-day (%.3f)", r10w5, r10w1)
	}
	if r10w5 < 0.90 {
		t.Fatalf("10 routers @ 5-day window = %.3f, want >= 0.90 (paper: 95%%)", r10w5)
	}

	r20w30 := rate(20, 30)
	if r20w30 < r20 {
		t.Fatalf("30-day window (%.3f) must be at least the 1-day rate (%.3f)", r20w30, r20)
	}
	if r20w30 < 0.95 {
		t.Fatalf("20 routers @ 30-day window = %.3f, want ~0.98", r20w30)
	}
}

func TestFigure13FigureGeneration(t *testing.T) {
	n := network(t)
	fig, err := Figure13Context(context.Background(), n, 8, []int{1, 5}, 20, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.X) != 8 {
			t.Fatalf("series %s has %d points", s.Name, len(s.X))
		}
		// Rates are percentages within [0, 100] and non-decreasing in
		// expectation; allow small sampling dips but require overall rise.
		if s.Y[0] >= s.Y[len(s.Y)-1] {
			t.Fatalf("series %s does not increase: %v", s.Name, s.Y)
		}
		for _, y := range s.Y {
			if y < 0 || y > 100 {
				t.Fatalf("rate out of range: %v", y)
			}
		}
	}
	// The 5-day window dominates the 1-day window at every fleet size.
	day1 := fig.FindSeries("1 day")
	day5 := fig.FindSeries("5 day")
	for i := range day1.Y {
		if day5.Y[i] < day1.Y[i]-3 { // small noise tolerance
			t.Fatalf("window ordering violated at k=%d: %v < %v", i+1, day5.Y[i], day1.Y[i])
		}
	}
	if fig.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestPeerBlocked(t *testing.T) {
	n := network(t)
	day := 20
	sw, err := NewSweep(n, SweepConfig{Fleets: []int{20}, Windows: []int{5}, Days: []int{day}, SeedBase: 7})
	if err != nil {
		t.Fatal(err)
	}
	bl, ix := sw.Blacklist(sw.Cells()[0]), IndexFor(n)
	blocked := func(idx int32) bool { return ix.PeerBlocked(bl, int(idx), day) }
	nBlocked, nKnown := 0, 0
	for _, idx := range n.ActivePeers(day) {
		p := n.Peers[idx]
		if p.Status == sim.StatusKnownIP {
			nKnown++
			if blocked(idx) {
				nBlocked++
			}
		} else if blocked(idx) {
			t.Fatal("unknown-IP peer reported blocked")
		}
	}
	frac := float64(nBlocked) / float64(nKnown)
	if frac < 0.5 {
		t.Fatalf("strong censor blocks only %.2f of known-IP peers", frac)
	}
}

func TestBridgeStrategies(t *testing.T) {
	n := network(t)
	evs, err := EvaluateBridgesContext(context.Background(), n, 5, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 4 {
		t.Fatalf("evaluations = %d", len(evs))
	}
	byStrat := make(map[BridgeStrategy]BridgeEvaluation)
	for _, e := range evs {
		byStrat[e.Strategy] = e
		if e.PoolSize == 0 {
			t.Fatalf("strategy %v has empty pool", e.Strategy)
		}
		if len(e.UsableByDay) != bridgeHorizonDays+1 {
			t.Fatalf("strategy %v has %d days", e.Strategy, len(e.UsableByDay))
		}
		for _, u := range e.UsableByDay {
			if u < 0 || u > 1 {
				t.Fatalf("usable fraction out of range: %v", u)
			}
		}
	}
	random := byStrat[BridgeRandom]
	newly := byStrat[BridgeNewlyJoined]
	fw := byStrat[BridgeFirewalled]

	// Random known-IP bridges are mostly already blocked.
	if random.InitialUsable() > 0.5 {
		t.Fatalf("random bridges initially usable = %.2f, want < 0.5", random.InitialUsable())
	}
	// Newly joined bridges start better than random.
	if newly.InitialUsable() <= random.InitialUsable() {
		t.Fatalf("newly joined (%.2f) must start better than random (%.2f)",
			newly.InitialUsable(), random.InitialUsable())
	}
	// Firewalled bridges resist address blocking throughout.
	if fw.FinalUsable() <= random.FinalUsable() {
		t.Fatalf("firewalled (%.2f) must outlast random (%.2f)",
			fw.FinalUsable(), random.FinalUsable())
	}
	// Newly joined bridges decay as the censor discovers them
	// ("If the peers stay in the network long enough, they will be
	// discovered ... and eventually will be blocked").
	if newly.FinalUsable() >= newly.InitialUsable() {
		t.Fatalf("newly joined bridges must decay: initial %.2f, final %.2f",
			newly.InitialUsable(), newly.FinalUsable())
	}
}

func TestEvaluateBridgesValidation(t *testing.T) {
	n := network(t)
	if _, err := EvaluateBridgesContext(context.Background(), n, 5, n.Days()-1, 0); err == nil {
		t.Fatal("horizon past study end accepted")
	}
	if _, err := EvaluateBridgesContext(context.Background(), n, 5, -1, 0); err == nil {
		t.Error("negative day accepted")
	}
}

func TestBridgeStrategyStrings(t *testing.T) {
	for _, s := range []BridgeStrategy{BridgeRandom, BridgeNewlyJoined, BridgeFirewalled, BridgeCombined} {
		if s.String() == "" {
			t.Fatal("empty strategy name")
		}
	}
	if BridgeStrategy(42).String() == "" {
		t.Fatal("unknown strategy must format")
	}
}

func TestEclipseAttack(t *testing.T) {
	n := network(t)
	day := 20
	injected := 25
	fig, results, err := EclipseSweepContext(context.Background(), n, []int{2, 20}, 5, injected, day, 77, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || len(fig.Series) != 2 {
		t.Fatal("sweep shape wrong")
	}
	weak, strong := results[0], results[1]
	// Tighter blocking shrinks the honest usable pool, so the attacker's
	// share must grow.
	if strong.AttackerShare <= weak.AttackerShare {
		t.Fatalf("attacker share did not grow with blocking: %.3f vs %.3f",
			weak.AttackerShare, strong.AttackerShare)
	}
	// Under a 20-router censor with a 5-day list (~99% blocking), the
	// injected routers should dominate the usable view.
	if strong.AttackerShare < 0.3 {
		t.Fatalf("strong-censor attacker share = %.3f, want dominant", strong.AttackerShare)
	}
	if strong.TunnelCompromiseP2 != strong.AttackerShare*strong.AttackerShare {
		t.Fatal("tunnel compromise probability inconsistent")
	}
	if strong.UsablePeers < injected {
		t.Fatal("usable peers cannot be below the injected count")
	}
	if RenderEclipse(results) == "" {
		t.Fatal("empty render")
	}
	if _, _, err := EclipseSweepContext(context.Background(), n, []int{0}, 5, injected, day, 77, 0); err == nil {
		t.Fatal("zero-router censor accepted")
	}
	// Past the study the victim knows nothing, so the injected routers
	// would be its whole usable view.
	if _, _, err := EclipseSweepContext(context.Background(), n, []int{2}, 5, injected, n.Days(), 77, 0); err == nil {
		t.Fatal("eclipse past the study accepted")
	}
	if _, _, err := EclipseSweepContext(context.Background(), n, []int{2}, 5, -1, day, 77, 0); err == nil {
		t.Fatal("negative injected routers accepted")
	}
}

// TestObservedIDsMatchesStatusCheckedLoop: observedIDs, which trusts the
// address index to know who publishes nothing, holds exactly the IDs the
// loop that also asked each peer's Status returned, in a set the size of
// the index.
func TestObservedIDsMatchesStatusCheckedLoop(t *testing.T) {
	n := network(t)
	c, err := newCensor(n, 4, 77)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < c.Routers(); r++ {
		for day := 0; day < n.Days(); day++ {
			var want []int32
			for _, idx := range c.observers[r].ObserveDay(day) {
				if n.Peers[idx].Status != sim.StatusKnownIP {
					continue
				}
				v4, v6 := c.ix.addrs.PeerIDs(idx, day)
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
				t.Fatalf("router %d day %d: against the status-checked loop: %v", r, day, err)
			}
			if len(got.words) != (c.ix.NumAddrs()+63)/64 {
				t.Fatalf("router %d day %d: the memo keeps %d words for %d addresses", r, day, len(got.words), c.ix.NumAddrs())
			}
		}
	}
}

// referenceObservedIDs is the full-day router-day capture, kept as the
// reference the subset draw over the addressed column is held to: every
// active peer drawn through DrawDay, the kept positions mapped through
// PeerIDs, compacted branch-free — v4 when present, v6 only beside a v4 —
// and copied into an exactly-sized ID list, with no memo.
func referenceObservedIDs(c *Censor, router, day int) []int32 {
	pos := c.observers[router].DrawDay(day, nil)
	active := c.ix.net.ActivePeers(day)
	ids := make([]int32, 2*len(pos)+1)
	n := 0
	for _, j := range pos {
		v4, v6 := c.ix.addrs.PeerIDs(int(active[j]), day)
		ids[n] = v4
		n += int(^uint32(v4) >> 31)
		ids[n] = v6
		n += int(^uint32(v4|v6) >> 31)
	}
	out := make([]int32, n)
	copy(out, ids)
	return out
}

// sameMembers reports how set differs from the members of ids, which may
// repeat an address two peers share: every ID must be a member, the set
// must hold nothing else, and Len must be the number of distinct IDs.
func sameMembers(set *AddrSet, ids []int32) error {
	distinct := make(map[int32]bool, len(ids))
	for _, id := range ids {
		if !set.Has(id) {
			return fmt.Errorf("ID %d missing from the set", id)
		}
		distinct[id] = true
	}
	members := len(setMembers(set))
	if members != len(distinct) || set.Len() != len(distinct) {
		return fmt.Errorf("set holds %d members with Len %d, want the %d distinct IDs", members, set.Len(), len(distinct))
	}
	return nil
}

// seedNetworks returns the test network and networks built at both bench
// seeds, each built once per test binary.
func seedNetworks(t testing.TB) map[string]*sim.Network {
	t.Helper()
	if seedNets == nil {
		seedNets = map[string]*sim.Network{"test": network(t)}
		for _, seed := range []uint64{2018, 424242} {
			n, err := sim.New(sim.Config{Seed: seed, Days: 40, TargetDailyPeers: 1200})
			if err != nil {
				t.Fatal(err)
			}
			seedNets[fmt.Sprint(seed)] = n
		}
	}
	return seedNets
}

var seedNets map[string]*sim.Network

// TestObservedSetMatchesReference: every router-day's set holds exactly
// the IDs of referenceObservedIDs, and its Len is their number of
// distinct IDs, on the test network and at both bench seeds.
func TestObservedSetMatchesReference(t *testing.T) {
	for name, n := range seedNetworks(t) {
		c, err := newCensor(n, 4, 700)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < c.Routers(); r++ {
			for day := 0; day < n.Days(); day++ {
				ref := referenceObservedIDs(c, r, day)
				got := c.observedIDs(r, day)
				if err := sameMembers(&got, ref); err != nil {
					t.Fatalf("%s: router %d day %d: %v", name, r, day, err)
				}
			}
		}
	}
}
