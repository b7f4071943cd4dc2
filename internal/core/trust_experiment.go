package core

import (
	"context"
	"fmt"
	"strings"

	"github.com/i2pstudy/i2pstudy/internal/censor"
	"github.com/i2pstudy/i2pstudy/internal/distrib"
	"github.com/i2pstudy/i2pstudy/internal/stats"
)

// The trust-distribution experiment runs the Salmon-style trust-graph
// distributor (distrib.TrustSocial + distrib.TrustSweep) against the
// censor lineup: an invited population whose bridges flow along
// invitation edges, with per-level request rate limits and the
// suspicion/banning loop. It extends the distribution category's
// open-channel arms races with the social channel the Section 7.1
// outlook points at: enumeration speed bounded by graph topology
// instead of identity budgets.

func init() {
	register(Experiment{
		ID:       "trust-distribution",
		Category: CategoryDistribution,
		Title:    "Trust-graph (Salmon-style) bridge distribution vs insider enumeration",
		Paper:    "Section 7.1 outlook: social distribution resists enumeration — crawlers mint nothing, only insiders leak, and banning quarantines their branch",
		Run:      runTrustDistribution,
	})
}

func runTrustDistribution(ctx context.Context, s *Study) (*Result, error) {
	// Two frontends on one backend: the default banning rule and a
	// strict one-strike variant, so the table shows the
	// collateral-vs-containment trade the banning threshold buys.
	users := 150 + s.Net.Days() // deterministic in the study, ~200 at defaults
	dists := []*distrib.TrustSocial{
		distrib.NewTrustSocial(distrib.TrustSocialConfig{
			Name:  "trust-social",
			Graph: distrib.TrustGraphConfig{Users: users, Seed: s.Opts.Seed + 1},
		}),
		distrib.NewTrustSocial(distrib.TrustSocialConfig{
			Name:         "trust-strict",
			Graph:        distrib.TrustGraphConfig{Users: users, Seed: s.Opts.Seed + 2},
			BanThreshold: 1,
		}),
	}
	enums := []distrib.Enumerator{
		{Kind: distrib.Crawler, Budget: 200},
		{Kind: distrib.Insider, InsiderFrac: 0.1},
	}
	sw, err := distrib.NewTrustSweep(s.Net, distrib.TrustSweepConfig{
		Strategy:     censor.BridgeCombined,
		Distributors: dists,
		Enumerators:  enums,
		Day:          s.distribDay(),
		HorizonDays:  distribHorizon,
		MaxResources: 160,
		SeedBase:     s.Opts.Seed + 1400,
		Workers:      s.Workers(),
	})
	if err != nil {
		return nil, err
	}
	rows, err := sw.Run(ctx)
	if err != nil {
		return nil, err
	}
	// Rows lay enumerators outer, distributors inner.
	row := func(e, d int) distrib.TrustRow { return rows[e*len(dists)+d] }

	fig := &stats.Figure{
		Title:  "Trust-graph distribution: bootstrap and enumeration under a 10% insider",
		XLabel: "days after distribution",
		YLabel: "fraction of population / partition (%)",
	}
	for di, d := range dists {
		sr := fig.AddSeries(d.Name() + " bootstrap")
		se := fig.AddSeries(d.Name() + " enumerated")
		for h, day := range row(1, di).Days { // the insider
			sr.Append(float64(h), 100*day.Bootstrap)
			se.Append(float64(h), 100*day.Enumerated)
		}
	}

	table := [][]string{{"distributor", "enumerator", "users", "bootstrap", "enumerated", "banned", "mean trust", "leaks"}}
	metrics := map[string]float64{}
	for di, d := range dists {
		for ei, e := range enums {
			r := row(ei, di)
			final := r.Days[len(r.Days)-1]
			table = append(table, []string{
				d.Name(), e.Name(), fmt.Sprint(r.Users),
				fmt.Sprintf("%.2f", final.Bootstrap),
				fmt.Sprintf("%.2f", final.Enumerated),
				fmt.Sprintf("%.2f", final.Banned),
				fmt.Sprintf("%.2f", final.MeanTrust),
				fmt.Sprint(final.Leaks),
			})
			key := d.Name() + "_" + e.Name()
			metrics[key+"_bootstrap_final"] = final.Bootstrap
			metrics[key+"_enumerated_final"] = final.Enumerated
			metrics[key+"_banned_final"] = final.Banned
		}
	}
	var sb strings.Builder
	sb.WriteString("Trust-graph (Salmon-style) distribution, 10-day horizon\n")
	sb.WriteString(stats.RenderTable(table))
	return &Result{
		ID: "trust-distribution", Title: "Trust-graph bridge distribution",
		Text: sb.String(), Figure: fig, Metrics: metrics,
	}, nil
}
