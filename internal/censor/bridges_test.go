package censor

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// referenceBridgeUsable is the bridge-reachability rule in its predicate
// form, as the bridge evaluation applied it before the rule moved onto
// the address index: blocked is any predicate over peer indexes, and a
// firewalled bridge draws its introducers from rng in call order.
func referenceBridgeUsable(network *sim.Network, idx, day int, blocked func(int) bool, introducers int, rng *rand.Rand) bool {
	p := network.Peers[idx]
	if !p.ActiveOn(day) {
		return false
	}
	switch p.Status {
	case sim.StatusKnownIP:
		return !blocked(idx)
	case sim.StatusFirewalled, sim.StatusToggling:
		// Reachable via an introducer: usable while at least one drawn
		// introducer is itself unblocked.
		pool := network.Introducers(day)
		if len(pool) == 0 {
			return false
		}
		for i := 0; i < introducers; i++ {
			if !blocked(int(pool[rng.IntN(len(pool))])) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// TestBridgeUsableMatchesReference: AddrIndex.BridgeUsable answers what
// the predicate form answers and leaves its RNG where the predicate form
// leaves its own, on every peer, over blacklists from real sweep cells,
// the empty set, the full set and every other address, on networks of
// two seeds.
func TestBridgeUsableMatchesReference(t *testing.T) {
	for _, seed := range []uint64{2018, 424242} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			n, err := sim.New(sim.Config{Seed: seed, Days: 40, TargetDailyPeers: 1200})
			if err != nil {
				t.Fatal(err)
			}
			sw, err := NewSweep(n, SweepConfig{Fleets: []int{1, 6}, Windows: []int{1, 5}, Days: []int{10, 25}, SeedBase: seed})
			if err != nil {
				t.Fatal(err)
			}
			ix := IndexFor(n)
			// Every other address as well: unlike a capture, it holds
			// some peers' v6 without their v4.
			full, odd := ix.NewSet(), ix.NewSet()
			for id := range int32(ix.NumAddrs()) {
				full.Add(id)
				if id%2 == 1 {
					odd.Add(id)
				}
			}
			sets := []*AddrSet{ix.NewSet(), full, odd}
			for _, cell := range sw.Cells() {
				sets = append(sets, sw.Blacklist(cell))
			}
			got := rand.New(rand.NewPCG(seed, 7))
			want := rand.New(rand.NewPCG(seed, 7))
			calls, usable := 0, 0
			for si, bl := range sets {
				for _, day := range []int{0, 10, 25, n.Days() - 1} {
					blocked := func(idx int) bool {
						v4, v6 := ix.PeerIDs(idx, day)
						return bl.Has(v4) || bl.Has(v6)
					}
					for idx := range n.Peers {
						g := ix.BridgeUsable(bl, idx, day, got)
						w := referenceBridgeUsable(n, idx, day, blocked, introducersPerBridge, want)
						if g != w {
							t.Fatalf("set %d day %d peer %d: usable %v, the reference says %v", si, day, idx, g, w)
						}
						if gn, wn := got.Uint64(), want.Uint64(); gn != wn {
							t.Fatalf("set %d day %d peer %d: the RNG is not where the reference leaves it", si, day, idx)
						}
						calls++
						if g {
							usable++
						}
					}
				}
			}
			if usable == 0 || usable == calls {
				t.Fatalf("%d of %d calls usable: the comparison never saw both answers", usable, calls)
			}
		})
	}
}

// referenceBridgePools is the pool builder BridgePool replaced, kept as
// its reference: every strategy's pool in one pass over the day's active
// peers, and the combined pool copied from the other two.
func referenceBridgePools(network *sim.Network, day int) map[BridgeStrategy][]int {
	var knownIP, newlyJoined, firewalled []int
	for _, id := range network.ActivePeers(day) {
		idx := int(id)
		p := network.Peers[idx]
		switch p.Status {
		case sim.StatusKnownIP:
			knownIP = append(knownIP, idx)
			if p.FirstActiveDay() >= day-1 {
				newlyJoined = append(newlyJoined, idx)
			}
		case sim.StatusFirewalled, sim.StatusToggling:
			firewalled = append(firewalled, idx)
		}
	}
	return map[BridgeStrategy][]int{
		BridgeRandom:      knownIP,
		BridgeNewlyJoined: newlyJoined,
		BridgeFirewalled:  firewalled,
		BridgeCombined:    append(append([]int(nil), newlyJoined...), firewalled...),
	}
}

// TestBridgePoolMatchesReference: each strategy's pool holds the
// reference's peers in the reference's order — the order the bridge
// evaluation's permutation draws from — on every day, at both bench
// seeds; a strategy that names no pool gets none.
func TestBridgePoolMatchesReference(t *testing.T) {
	for _, seed := range []uint64{2018, 424242} {
		n := seedNetworks(t)[fmt.Sprint(seed)]
		for day := 0; day < n.Days(); day++ {
			ref := referenceBridgePools(n, day)
			for _, strat := range []BridgeStrategy{BridgeRandom, BridgeNewlyJoined, BridgeFirewalled, BridgeCombined} {
				got := BridgePool(n, strat, day)
				if !slices.Equal(got, ref[strat]) {
					t.Fatalf("seed %d day %d %v: pool of %d, the reference holds %d", seed, day, strat, len(got), len(ref[strat]))
				}
				if day == 5 && len(got) == 0 {
					t.Fatalf("seed %d %v: empty pool on the bench's distribution day", seed, strat)
				}
			}
			if got := BridgePool(n, BridgeStrategy(9), day); len(got) != 0 {
				t.Fatalf("seed %d day %d: an unknown strategy has a pool of %d", seed, day, len(got))
			}
		}
	}
}
