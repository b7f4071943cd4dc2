package censor

import (
	"fmt"
	"math/rand/v2"
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
						introducers := idx % 5
						g := ix.BridgeUsable(bl, idx, day, introducers, got)
						w := referenceBridgeUsable(n, idx, day, blocked, introducers, want)
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
