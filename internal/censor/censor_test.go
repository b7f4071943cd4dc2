package censor

import (
	"context"
	"slices"
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
	if _, err := NewCensor(n, 0, 1, 1); err == nil {
		t.Fatal("zero routers accepted")
	}
	c, err := NewCensor(n, 5, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.WindowDays != 1 {
		t.Fatalf("window defaulted to %d, want 1", c.WindowDays)
	}
	if c.Routers() != 5 {
		t.Fatalf("routers = %d", c.Routers())
	}
}

func TestBlacklistGrowsWithRoutersAndWindow(t *testing.T) {
	n := network(t)
	c, err := NewCensor(n, 20, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	day := 20
	b1 := len(c.BlacklistAt(1, day))
	b5 := len(c.BlacklistAt(5, day))
	b20 := len(c.BlacklistAt(20, day))
	if !(b1 < b5 && b5 < b20) {
		t.Fatalf("blacklist must grow with routers: %d, %d, %d", b1, b5, b20)
	}
	cw, err := NewCensor(n, 20, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	b20w10 := len(cw.BlacklistAt(20, day))
	if b20w10 <= b20 {
		t.Fatalf("10-day window (%d) must exceed 1-day window (%d)", b20w10, b20)
	}
}

func TestVictimKnowsSubstantialNetDb(t *testing.T) {
	n := network(t)
	v := NewVictim(n, 99)
	day := 20
	addrs := v.KnownAddresses(day)
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
	v := NewVictim(n, 99)
	day := 20

	c1, err := NewCensor(n, 20, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	r2 := BlockingRate(c1, v, 2, day)
	r6 := BlockingRate(c1, v, 6, day)
	r20 := BlockingRate(c1, v, 20, day)
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
	c5, err := NewCensor(n, 20, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	r10w5 := BlockingRate(c5, v, 10, day)
	r10w1 := BlockingRate(c1, v, 10, day)
	if r10w5 <= r10w1 {
		t.Fatalf("5-day window (%.3f) must beat 1-day (%.3f)", r10w5, r10w1)
	}
	if r10w5 < 0.90 {
		t.Fatalf("10 routers @ 5-day window = %.3f, want >= 0.90 (paper: 95%%)", r10w5)
	}

	c30, err := NewCensor(n, 20, 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	r20w30 := BlockingRate(c30, v, 20, day)
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
		if s.Len() != 8 {
			t.Fatalf("series %s has %d points", s.Name, s.Len())
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

func TestBlockedPeerFunc(t *testing.T) {
	n := network(t)
	c, err := NewCensor(n, 20, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	day := 20
	blocked := c.BlockedPeerFunc(20, day)
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
	cfg := DefaultBridgeConfig()
	cfg.Day = 10
	cfg.HorizonDays = 8
	evs, err := EvaluateBridgesContext(context.Background(), n, 5, cfg)
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
		if len(e.UsableByDay) != cfg.HorizonDays+1 {
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
	cfg := DefaultBridgeConfig()
	cfg.Day = n.Days() - 1
	cfg.HorizonDays = 10
	if _, err := EvaluateBridgesContext(context.Background(), n, 5, cfg); err == nil {
		t.Fatal("horizon past study end accepted")
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
	weak, err := EclipseAttack(n, 2, 5, injected, day, 77)
	if err != nil {
		t.Fatal(err)
	}
	strong, err := EclipseAttack(n, 20, 5, injected, day, 77)
	if err != nil {
		t.Fatal(err)
	}
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
	// Sweep machinery.
	fig, results, err := EclipseSweepContext(context.Background(), n, []int{2, 20}, 5, injected, day, 77, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || len(fig.Series) != 2 {
		t.Fatal("sweep shape wrong")
	}
	if RenderEclipse(results) == "" {
		t.Fatal("empty render")
	}
	if _, err := EclipseAttack(n, 0, 5, injected, day, 77); err == nil {
		t.Fatal("zero-router censor accepted")
	}
}

// TestObservedIDsMatchesStatusCheckedLoop: observedIDs, which trusts the
// address index to know who publishes nothing, returns exactly what the
// loop that also asked each peer's Status returned.
func TestObservedIDsMatchesStatusCheckedLoop(t *testing.T) {
	n := network(t)
	c, err := NewCensor(n, 4, 1, 77)
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
				v4, v6 := c.ix.PeerIDs(idx, day)
				if v4 < 0 {
					continue
				}
				want = append(want, v4)
				if v6 >= 0 {
					want = append(want, v6)
				}
			}
			got := c.observedIDs(r, day)
			if !slices.Equal(got, want) {
				t.Fatalf("router %d day %d: %d IDs, the status-checked loop gives %d", r, day, len(got), len(want))
			}
			if cap(got) != len(got) {
				t.Fatalf("router %d day %d: the memo keeps capacity %d for %d IDs", r, day, cap(got), len(got))
			}
		}
	}
}
