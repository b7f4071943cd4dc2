package censor

import (
	"context"
	"fmt"
	"math/rand/v2"

	"github.com/i2pstudy/i2pstudy/internal/pool"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// This file implements the Section 7.1 mitigation study: using newly
// joined peers (which the censor has not yet observed) and firewalled
// peers (which publish no blockable address) as bridges for users behind
// the address-blocking firewall. The censor side — one blacklist per
// horizon day — runs as cells of an adversary sweep; the bridge selection
// and survival fold stays serial because it threads one RNG through the
// strategies in a fixed historical order.

// BridgeStrategy selects the candidate pool for bridge distribution.
type BridgeStrategy int

// Bridge strategies from Section 7.1.
const (
	// BridgeRandom draws from all known-IP peers: the baseline that a
	// naive bridge distributor would use.
	BridgeRandom BridgeStrategy = iota
	// BridgeNewlyJoined draws from peers that joined within the last two
	// days: "since these peers are newly joined, they are less likely
	// discovered and blocked immediately by the censor".
	BridgeNewlyJoined
	// BridgeFirewalled draws from firewalled peers: "without a public IP
	// address, the censor cannot apply the address-based blocking
	// technique".
	BridgeFirewalled
	// BridgeCombined mixes newly joined and firewalled peers — the
	// paper's proposed "potentially sustainable solution".
	BridgeCombined
)

func (s BridgeStrategy) String() string {
	switch s {
	case BridgeRandom:
		return "random"
	case BridgeNewlyJoined:
		return "newly-joined"
	case BridgeFirewalled:
		return "firewalled"
	case BridgeCombined:
		return "combined"
	default:
		return fmt.Sprintf("BridgeStrategy(%d)", int(s))
	}
}

// BridgeEvaluation reports how a strategy's bridges fare under a censor.
type BridgeEvaluation struct {
	Strategy BridgeStrategy
	// PoolSize is how many candidates the strategy had to draw from.
	PoolSize int
	// Selected is how many bridges were handed out.
	Selected int
	// UsableByDay[d] is the fraction of selected bridges still usable d
	// days after distribution: online and reachable from behind the
	// firewall (unblocked address, or for firewalled bridges at least one
	// unblocked introducer).
	UsableByDay []float64
}

// InitialUsable returns the day-0 usable fraction.
func (e BridgeEvaluation) InitialUsable() float64 {
	if len(e.UsableByDay) == 0 {
		return 0
	}
	return e.UsableByDay[0]
}

// FinalUsable returns the last-day usable fraction.
func (e BridgeEvaluation) FinalUsable() float64 {
	if len(e.UsableByDay) == 0 {
		return 0
	}
	return e.UsableByDay[len(e.UsableByDay)-1]
}

// The Section 7.1 evaluation's constants.
const (
	// bridgeHorizonDays is how many days of survival an evaluation
	// tracks past the distribution day.
	bridgeHorizonDays = 10
	// bridgesPerStrategy is how many bridges each strategy hands out.
	bridgesPerStrategy = 50
	// bridgeCensorRouters is the censor fleet size: the paper's "90%
	// blocking with only six routers" adversary. At 20 routers even
	// introducer paths saturate and every strategy collapses toward
	// zero, which is exactly the escalation Section 7.1 warns about.
	bridgeCensorRouters = 6
	// bridgeSeed drives the censor's fleet (offset by 500) and the
	// bridge selection.
	bridgeSeed = 1
)

// EvaluateBridgesContext runs every strategy against a censor with the
// given blacklist window, distributing bridges on day and tracking them
// for ten days, and returns one evaluation per strategy, with the
// censor's per-day blacklists computed as adversary sweep cells across
// the worker pool (workers <= 0: one per CPU). The survival fold itself
// is serial and byte-identical for any workers value.
func EvaluateBridgesContext(ctx context.Context, network *sim.Network, windowDays, day, workers int) ([]BridgeEvaluation, error) {
	if day < 0 {
		return nil, fmt.Errorf("censor: bridge distribution day %d is before the study", day)
	}
	if day+bridgeHorizonDays >= network.Days() {
		return nil, fmt.Errorf("censor: bridge horizon (day %d + %d) exceeds network days (%d)",
			day, bridgeHorizonDays, network.Days())
	}
	days := make([]int, 0, bridgeHorizonDays+1)
	for d := 0; d <= bridgeHorizonDays; d++ {
		days = append(days, day+d)
	}
	sw, err := NewSweep(network, SweepConfig{
		Fleets:   []int{bridgeCensorRouters},
		Windows:  []int{windowDays},
		Days:     days,
		SeedBase: bridgeSeed + 500,
		Workers:  workers,
	})
	if err != nil {
		return nil, err
	}
	if err := sw.Capture(ctx); err != nil {
		return nil, err
	}
	// One blacklist per horizon day, evaluated as sweep cells;
	// cells[i].Day == days[i] because fleets and windows are singleton
	// and Cells() enumerates days outermost. Each set is the cell's own,
	// so it outlives the sweep for the serial survival fold below.
	cells := sw.Cells()
	blacklists := make([]*AddrSet, len(cells))
	err = pool.FanOut(ctx, len(cells), workers, func(i int) error {
		blacklists[i] = sw.Blacklist(cells[i])
		return nil
	})
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewPCG(bridgeSeed, bridgeSeed^0xBF58476D1CE4E5B9))
	ix := sw.Censor.ix

	var out []BridgeEvaluation
	for _, strat := range []BridgeStrategy{BridgeRandom, BridgeNewlyJoined, BridgeFirewalled, BridgeCombined} {
		pool := BridgePool(network, strat, day)
		ev := BridgeEvaluation{Strategy: strat, PoolSize: len(pool)}
		if len(pool) == 0 {
			out = append(out, ev)
			continue
		}
		nSel := min(bridgesPerStrategy, len(pool))
		perm := rng.Perm(len(pool))
		selected := make([]int, 0, nSel)
		for _, i := range perm[:nSel] {
			selected = append(selected, pool[i])
		}
		ev.Selected = nSel

		for d, bl := range blacklists {
			usable := 0
			for _, idx := range selected {
				if ix.BridgeUsable(bl, idx, day+d, rng) {
					usable++
				}
			}
			ev.UsableByDay = append(ev.UsableByDay, float64(usable)/float64(nSel))
		}
		out = append(out, ev)
	}
	return out, nil
}

// BridgePool returns the peer indexes the given strategy would draw bridge
// candidates from on the distribution day, in ActivePeers order — the
// resource supply side of the distrib subsystem's backend and of the
// bridge evaluation. The combined pool is the newly joined pool followed
// by the firewalled one.
func BridgePool(network *sim.Network, strat BridgeStrategy, day int) []int {
	if strat == BridgeCombined {
		return append(BridgePool(network, BridgeNewlyJoined, day), BridgePool(network, BridgeFirewalled, day)...)
	}
	var pool []int
	for _, id := range network.ActivePeers(day) {
		var in bool
		switch network.Peers[id].Status {
		case sim.StatusKnownIP:
			in = strat == BridgeRandom || strat == BridgeNewlyJoined && network.FirstActiveDay(int(id)) >= day-1
		case sim.StatusFirewalled, sim.StatusToggling:
			in = strat == BridgeFirewalled
		}
		if in {
			pool = append(pool, int(id))
		}
	}
	return pool
}

// introducersPerBridge is how many introducers a firewalled bridge
// publishes: the draws BridgeUsable makes for one.
const introducersPerBridge = 3

// BridgeUsable is the one Section 7.1 reachability rule: whether bridge
// peer idx can be used from behind the firewall on day under blacklist
// bl. A known-IP bridge must be active and off the blacklist; a
// firewalled one must be active and draw, from the day's introducer pool,
// at least one introducer off the blacklist within introducersPerBridge
// tries. The draws come from rng in call order, so the bridge evaluation
// and the distrib sweeps that share this rule consume their streams
// identically.
func (ix *AddrIndex) BridgeUsable(bl *AddrSet, idx, day int, rng *rand.Rand) bool {
	if !ix.net.ActiveOn(idx, day) {
		return false
	}
	switch ix.net.Peers[idx].Status {
	case sim.StatusKnownIP:
		return !ix.PeerBlocked(bl, idx, day)
	case sim.StatusFirewalled, sim.StatusToggling:
		pool := ix.net.Introducers(day)
		if len(pool) == 0 {
			return false
		}
		for range introducersPerBridge {
			if !ix.PeerBlocked(bl, int(pool[rng.IntN(len(pool))]), day) {
				return true
			}
		}
		return false
	default:
		return false
	}
}
