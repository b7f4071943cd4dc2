package censor

import (
	"context"
	"fmt"

	"github.com/i2pstudy/i2pstudy/internal/pool"
	"github.com/i2pstudy/i2pstudy/internal/sim"
	"github.com/i2pstudy/i2pstudy/internal/stats"
)

// This file implements the Section 7.2 escalation: "after blocking more
// than 95% of active peers in the network, the attacker can inject
// malicious routers ... the victim is bootstrapped into the attacker's
// network", the stepping stone to traffic-analysis deanonymization. The
// experiment measures how much of the victim's *usable* view the attacker
// controls as blocking tightens. Fleet sizes are cells of an adversary
// sweep: one shared censor fleet at the maximum size, each cell folding
// its own blacklist prefix.

// EclipseResult reports one eclipse evaluation.
type EclipseResult struct {
	// CensorRouters is the monitoring fleet size used for the blacklist.
	CensorRouters int
	// Injected is how many attacker routers were whitelisted.
	Injected int
	// UsablePeers is how many netDb entries remain reachable for the
	// victim (unblocked honest peers + attacker routers).
	UsablePeers int
	// AttackerShare is the fraction of the victim's usable view that the
	// attacker controls — the eclipse metric.
	AttackerShare float64
	// TunnelCompromiseP2 approximates the probability that both selected
	// tunnel direct-contacts are attacker-controlled under uniform
	// selection from the usable view.
	TunnelCompromiseP2 float64
}

// eclipseCell evaluates the Section 7.2 scenario for one sweep cell: the
// censor blocks every observed peer address, and `injected` whitelisted
// attacker routers join the victim's usable view.
func (s *Sweep) eclipseCell(cell Cell, injected int) EclipseResult {
	bl := s.Blacklist(cell)
	ix := s.Censor.ix
	usableHonest := 0
	for _, idx := range s.Victim.KnownPeers(cell.Day) {
		// Only peers with contactable addresses matter for tunnels.
		if s.Net.Peers[idx].Status != sim.StatusKnownIP {
			continue
		}
		if !ix.PeerBlocked(bl, idx, cell.Day) {
			usableHonest++
		}
	}
	usable := usableHonest + injected
	res := EclipseResult{
		CensorRouters: cell.Fleet,
		Injected:      injected,
		UsablePeers:   usable,
	}
	if usable > 0 {
		res.AttackerShare = float64(injected) / float64(usable)
		res.TunnelCompromiseP2 = res.AttackerShare * res.AttackerShare
	}
	return res
}

// EclipseSweepContext evaluates the attack across censor fleet sizes,
// producing the attacker-share curve. It runs on the adversary engine: the
// fleet is built once at max(fleets), cells fan out across the worker
// pool, and the figure folds in fleet order — byte-identical for any
// workers value.
func EclipseSweepContext(ctx context.Context, network *sim.Network, fleets []int, windowDays, injected, day int, seed uint64, workers int) (*stats.Figure, []EclipseResult, error) {
	if injected < 0 {
		return nil, nil, fmt.Errorf("censor: cannot inject %d attacker routers", injected)
	}
	sw, err := NewSweep(network, SweepConfig{
		Fleets:   fleets,
		Windows:  []int{windowDays},
		Days:     []int{day},
		SeedBase: seed,
		Workers:  workers,
	})
	if err != nil {
		return nil, nil, err
	}
	if err := sw.Capture(ctx); err != nil {
		return nil, nil, err
	}
	cells := sw.Cells()
	results := make([]EclipseResult, len(cells))
	err = pool.FanOut(ctx, len(cells), workers, func(i int) error {
		results[i] = sw.eclipseCell(cells[i], injected)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	fig := &stats.Figure{
		Title:  "Section 7.2: attacker share of the victim's usable view",
		XLabel: "censor routers",
		YLabel: "share",
	}
	shareS := fig.AddSeries("attacker share")
	compS := fig.AddSeries("P(both direct contacts malicious)")
	for _, res := range results {
		shareS.Append(float64(res.CensorRouters), res.AttackerShare)
		compS.Append(float64(res.CensorRouters), res.TunnelCompromiseP2)
	}
	return fig, results, nil
}

// RenderEclipse renders the sweep as a table.
func RenderEclipse(results []EclipseResult) string {
	rows := [][]string{{"censor routers", "usable peers", "attacker share", "P(tunnel ends malicious)"}}
	for _, r := range results {
		rows = append(rows, []string{
			fmt.Sprint(r.CensorRouters),
			fmt.Sprint(r.UsablePeers),
			fmt.Sprintf("%.2f", r.AttackerShare),
			fmt.Sprintf("%.3f", r.TunnelCompromiseP2),
		})
	}
	return stats.RenderTable(rows)
}
