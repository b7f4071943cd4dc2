package censor

import (
	"context"
	"fmt"
	"math/rand/v2"

	"github.com/i2pstudy/i2pstudy/internal/measure"
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

// BridgeConfig parameterizes an evaluation.
type BridgeConfig struct {
	// Day is the distribution day.
	Day int
	// HorizonDays is how many days of survival to track (Day+Horizon
	// must stay within the network's study window).
	HorizonDays int
	// Bridges is how many bridges to hand out per strategy.
	Bridges int
	// CensorRouters is the censor fleet size. The default of 6 is the
	// paper's "90% blocking with only six routers" adversary; at 20
	// routers even introducer paths saturate and every strategy collapses
	// toward zero, which is exactly the escalation Section 7.1 warns
	// about.
	CensorRouters int
	// IntroducersPerBridge is how many introducers a firewalled bridge
	// publishes.
	IntroducersPerBridge int
	// Seed drives selection.
	Seed uint64
	// Workers caps the engine concurrency for the censor-side captures
	// and per-day blacklists (<= 0: one worker per CPU). The survival
	// fold itself is serial and byte-identical for any value.
	Workers int
}

// DefaultBridgeConfig returns the configuration used by the bench.
func DefaultBridgeConfig() BridgeConfig {
	return BridgeConfig{
		Day:                  5,
		HorizonDays:          10,
		Bridges:              50,
		CensorRouters:        6,
		IntroducersPerBridge: 3,
		Seed:                 1,
	}
}

// EvaluateBridgesContext runs every strategy against a censor with the
// given blacklist window and returns one evaluation per strategy, with
// the censor's per-day blacklists computed as adversary sweep cells
// across the worker pool.
func EvaluateBridgesContext(ctx context.Context, network *sim.Network, windowDays int, cfg BridgeConfig) ([]BridgeEvaluation, error) {
	if cfg.Bridges <= 0 {
		return nil, fmt.Errorf("censor: need at least one bridge per strategy, got %d", cfg.Bridges)
	}
	if cfg.IntroducersPerBridge <= 0 {
		return nil, fmt.Errorf("censor: a firewalled bridge needs at least one introducer, got %d", cfg.IntroducersPerBridge)
	}
	if cfg.Day < 0 {
		return nil, fmt.Errorf("censor: bridge distribution day %d is before the study", cfg.Day)
	}
	if cfg.Day+cfg.HorizonDays >= network.Days() {
		return nil, fmt.Errorf("censor: bridge horizon (day %d + %d) exceeds network days (%d)",
			cfg.Day, cfg.HorizonDays, network.Days())
	}
	days := make([]int, 0, cfg.HorizonDays+1)
	for d := 0; d <= cfg.HorizonDays; d++ {
		days = append(days, cfg.Day+d)
	}
	sw, err := NewSweep(network, SweepConfig{
		Fleets:   []int{cfg.CensorRouters},
		Windows:  []int{windowDays},
		Days:     days,
		SeedBase: cfg.Seed + 500,
		Workers:  cfg.Workers,
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
	err = measure.FanOut(ctx, len(cells), cfg.Workers, func(i int) error {
		blacklists[i] = sw.Blacklist(cells[i])
		return nil
	})
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xBF58476D1CE4E5B9))
	ix := sw.Censor.ix

	var out []BridgeEvaluation
	for _, strat := range []BridgeStrategy{BridgeRandom, BridgeNewlyJoined, BridgeFirewalled, BridgeCombined} {
		pool := BridgePool(network, strat, cfg.Day)
		ev := BridgeEvaluation{Strategy: strat, PoolSize: len(pool)}
		if len(pool) == 0 {
			out = append(out, ev)
			continue
		}
		nSel := cfg.Bridges
		if nSel > len(pool) {
			nSel = len(pool)
		}
		perm := rng.Perm(len(pool))
		selected := make([]int, 0, nSel)
		for _, i := range perm[:nSel] {
			selected = append(selected, pool[i])
		}
		ev.Selected = nSel

		for d := 0; d <= cfg.HorizonDays; d++ {
			day := cfg.Day + d
			usable := 0
			for _, idx := range selected {
				if ix.BridgeUsable(blacklists[d], idx, day, cfg.IntroducersPerBridge, rng) {
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
		p := network.Peers[id]
		var in bool
		switch p.Status {
		case sim.StatusKnownIP:
			in = strat == BridgeRandom || strat == BridgeNewlyJoined && p.FirstActiveDay() >= day-1
		case sim.StatusFirewalled, sim.StatusToggling:
			in = strat == BridgeFirewalled
		}
		if in {
			pool = append(pool, int(id))
		}
	}
	return pool
}

// BridgeUsable is the one Section 7.1 reachability rule: whether bridge
// peer idx can be used from behind the firewall on day under blacklist
// bl. A known-IP bridge must be active and off the blacklist; a
// firewalled one must be active and draw, from the day's introducer pool,
// at least one introducer off the blacklist within `introducers` tries.
// The draws come from rng in call order, so the bridge evaluation and the
// distrib sweeps that share this rule consume their streams identically.
func (ix *AddrIndex) BridgeUsable(bl *AddrSet, idx, day, introducers int, rng *rand.Rand) bool {
	p := ix.net.Peers[idx]
	if !p.ActiveOn(day) {
		return false
	}
	switch p.Status {
	case sim.StatusKnownIP:
		return !ix.PeerBlocked(bl, idx, day)
	case sim.StatusFirewalled, sim.StatusToggling:
		pool := ix.net.Introducers(day)
		if len(pool) == 0 {
			return false
		}
		for range introducers {
			if !ix.PeerBlocked(bl, int(pool[rng.IntN(len(pool))]), day) {
				return true
			}
		}
		return false
	default:
		return false
	}
}
