package core

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"strings"

	"github.com/i2pstudy/i2pstudy/internal/censor"
	"github.com/i2pstudy/i2pstudy/internal/eepsite"
	"github.com/i2pstudy/i2pstudy/internal/measure"
	"github.com/i2pstudy/i2pstudy/internal/netdb"
	"github.com/i2pstudy/i2pstudy/internal/pool"
	"github.com/i2pstudy/i2pstudy/internal/reseed"
	"github.com/i2pstudy/i2pstudy/internal/sim"
	"github.com/i2pstudy/i2pstudy/internal/stats"
	"github.com/i2pstudy/i2pstudy/internal/transport"
	"github.com/i2pstudy/i2pstudy/internal/tunnel"
)

func init() {
	register(Experiment{
		ID:       "figure-02",
		Category: CategoryPopulation,
		Title:    "Peers observed by one high-end router in floodfill vs non-floodfill mode",
		Paper:    "~15-16K peers/day out of ~30.5K; non-floodfill slightly higher",
		Run:      runFigure02,
		Expectations: []Expectation{
			{Metric: "nonff_over_ff", Lo: math.Nextafter(1, math.Inf(1)), Hi: math.Inf(1), Source: "Figure 2"},
			{Metric: "coverage_of_actives", Lo: 0.40, Hi: 0.62, Source: "Figure 2"},
		},
	})
	register(Experiment{
		ID:       "figure-03",
		Category: CategoryPopulation,
		Title:    "Peers observed vs shared bandwidth (7 floodfill + 7 non-floodfill routers)",
		Paper:    "floodfill wins <2MB/s by 1.5-2K, non-floodfill wins >2MB/s by 1-1.5K; pair union flat at 17-18K",
		Run:      runFigure03,
		Expectations: []Expectation{
			{Metric: "ff_advantage_at_128", Lo: math.Nextafter(0, math.Inf(1)), Hi: math.Inf(1), Source: "Figure 3"},
			{Metric: "nonff_advantage_at_5mb", Lo: math.Nextafter(0, math.Inf(1)), Hi: math.Inf(1), Source: "Figure 3"},
			{Metric: "union_spread_ratio", Lo: math.Inf(-1), Hi: 0.2, Source: "Figure 3"},
		},
	})
	register(Experiment{
		ID:       "figure-04",
		Category: CategoryPopulation,
		Title:    "Cumulative peers observed by 1-40 routers",
		Paper:    "logarithmic growth to ~32K; 20 routers reach 95.5%",
		Run:      runFigure04,
		Expectations: []Expectation{
			{Metric: "share_at_20", Lo: 0.90, Hi: math.Inf(1), Source: "Figure 4"},
		},
	})
	register(Experiment{
		ID:       "figure-05",
		Category: CategoryPopulation,
		Title:    "Daily unique peers and IP addresses",
		Paper:    "~30.5K daily peers; unique IPs noticeably lower; IPv6 far below IPv4",
		Run:      runFigure05,
	})
	register(Experiment{
		ID:       "figure-06",
		Category: CategoryPopulation,
		Title:    "Peers with unknown IP addresses",
		Paper:    "~15K unknown-IP: ~14K firewalled, ~4K hidden, ~2.6K overlapping",
		Run:      runFigure06,
	})
	register(Experiment{
		ID:       "figure-07",
		Category: CategoryPopulation,
		Title:    "Peer longevity (continuous vs intermittent)",
		Paper:    ">=7d: 56.36%/73.93%; >=30d: 20.03%/31.15%",
		Run:      runFigure07,
	})
	register(Experiment{
		ID:       "figure-08",
		Category: CategoryPopulation,
		Title:    "IP addresses per peer",
		Paper:    "45% single-IP, 55% multi-IP, ~0.65% over 100 addresses",
		Run:      runFigure08,
	})
	register(Experiment{
		ID:       "figure-09",
		Category: CategoryPopulation,
		Title:    "Capacity distribution of peers",
		Paper:    "L~21K, N~9K, P~2.1K, X~1.8K, O~875, M~400, K~360 per day",
		Run:      runFigure09,
	})
	register(Experiment{
		ID:       "table-01",
		Category: CategoryPopulation,
		Title:    "Bandwidth percentages by floodfill/reachable/unreachable group",
		Paper:    "N dominates floodfill column (62%), L dominates the others (~67-76%)",
		Run:      runTable01,
	})
	register(Experiment{
		ID:       "estimate-floodfill",
		Category: CategoryPopulation,
		Title:    "Qualified-floodfill population estimate",
		Paper:    "8.8% floodfills, 71% qualified -> ~1,917 qualified -> ~31,950 peers",
		Run:      runEstimateFloodfill,
	})
	register(Experiment{
		ID:       "figure-10",
		Category: CategoryPopulation,
		Title:    "Top 20 countries",
		Paper:    "US first (~28K); big-6 >40%; top-20 >60%; ~6K peers in 30 censored countries, CN >2K",
		Run:      runFigure10,
	})
	register(Experiment{
		ID:       "figure-11",
		Category: CategoryPopulation,
		Title:    "Top 20 autonomous systems",
		Paper:    "AS7922 (Comcast) >8K; top-20 >30%",
		Run:      runFigure11,
	})
	register(Experiment{
		ID:       "figure-12",
		Category: CategoryPopulation,
		Title:    "Autonomous systems per multi-IP peer",
		Paper:    ">80% single-AS; 8.4% >10 ASes; maxima 39 ASes / 25 countries",
		Run:      runFigure12,
	})
	register(Experiment{
		ID:       "figure-13",
		Category: CategoryCensorship,
		Title:    "Blocking rates vs censor routers and blacklist windows",
		Paper:    "90% @6 routers, >95% @20 (1-day); 95% @10 (5-day); ~98% @20 (30-day)",
		Run:      runFigure13,
		Expectations: []Expectation{
			{Metric: "rate_6routers_1day", Lo: 80, Hi: math.Inf(1), Source: "Figure 13"},
			{Metric: "rate_20routers_30day", Lo: 93, Hi: math.Inf(1), Source: "Figure 13"},
		},
	})
	register(Experiment{
		ID:       "figure-14",
		Category: CategoryCensorship,
		Title:    "Page-load latency and timeouts under blocking",
		Paper:    "3.4s unblocked; >20s + 40% timeouts @65%; >40s + >60% @70-90%; 95-100% timeouts >90%",
		Run:      runFigure14,
		Expectations: []Expectation{
			{Metric: "timeout_65_pct", Lo: 20, Hi: 70, Source: "Figure 14"},
			{Metric: "timeout_95_pct", Lo: 85, Hi: math.Inf(1), Source: "Figure 14"},
			{Metric: "load_unblocked_s", Lo: 3, Hi: 6, Source: "Figure 14"},
		},
	})
	register(Experiment{
		ID:       "reseed-blocking",
		Category: CategoryCensorship,
		Title:    "Reseed-server blocking and manual reseed (Section 6.1)",
		Paper:    "bootstrap fails when all reseeds are blocked; i2pseeds.su3 restores access",
		Run:      runReseedBlocking,
	})
	register(Experiment{
		ID:       "bridge-strategies",
		Category: CategoryCensorship,
		Title:    "Bridge candidate pools under blocking (Section 7.1)",
		Paper:    "newly joined peers start unblocked but decay; firewalled peers resist address blocking",
		Run:      runBridgeStrategies,
	})
	register(Experiment{
		ID:       "dpi-fingerprinting",
		Category: CategoryCensorship,
		Title:    "DPI flow fingerprinting of NTCP vs NTCP2 (Section 2.2.2)",
		Paper:    "NTCP's 288/304/448/48 handshake is fully detectable; NTCP2 padding defeats it",
		Run:      runDPIFingerprinting,
		Expectations: []Expectation{
			{Metric: "ntcp_detection_rate", Lo: 1, Hi: 1, Source: "Section 2.2.2"},
			{Metric: "ntcp2_detection_rate", Lo: math.Inf(-1), Hi: 0.4, Source: "Section 2.2.2"},
		},
	})
	register(Experiment{
		ID:       "port-blocking",
		Category: CategoryCensorship,
		Title:    "Collateral damage of port-range blocking (Section 2.2.2)",
		Paper:    "blocking ports 9000-31000 stops I2P but unintentionally blocks legitimate applications",
		Run:      runPortBlocking,
	})
	register(Experiment{
		ID:       "eclipse-attack",
		Category: CategoryCensorship,
		Title:    "From blocking to eclipse: attacker share of the victim's view (Section 7.2)",
		Paper:    "after blocking >95% of peers, injected whitelisted routers dominate the victim's usable view",
		Run:      runEclipseAttack,
	})
	register(Experiment{
		ID:       "ablation-observer-mix",
		Category: CategoryAblation,
		Title:    "Ablation: observer mode mix (all-ff vs all-nonff vs half/half)",
		Paper:    "Section 4.2: combining modes yields a more complete view than either alone",
		Run:      runAblationObserverMix,
		Expectations: []Expectation{
			{Metric: "mixed", Per: "all_ff", Lo: math.Nextafter(0.98, math.Inf(1)), Hi: math.Inf(1), Source: "Section 4.2"},
		},
	})
	register(Experiment{
		ID:       "ablation-flood-fanout",
		Category: CategoryAblation,
		Title:    "Ablation: floodfill flooding fan-out (1 vs 3 vs 8)",
		Paper:    "Section 4.2: fresh entries flood to the 3 closest floodfills",
		Run:      runAblationFloodFanout,
		Expectations: []Expectation{
			// Flooding goes to the floodfills closest to the holder, which
			// under the XOR metric cluster around the record key, so
			// replication grows slowly (non-strictly) with fan-out.
			{Metric: "replicas_fanout_1", Per: "replicas_fanout_3", Lo: math.Inf(-1), Hi: 1, Source: "Section 4.2"},
			{Metric: "replicas_fanout_3", Per: "replicas_fanout_8", Lo: math.Inf(-1), Hi: 1, Source: "Section 4.2"},
			{Metric: "replicas_fanout_1", Per: "replicas_fanout_8", Lo: math.Inf(-1), Hi: math.Nextafter(1, math.Inf(-1)), Source: "Section 4.2"},
		},
	})
}

// experimentDay is the reference day for single-day experiments, leaving
// room for blacklist windows behind it.
func (s *Study) experimentDay() int { return s.Opts.Days - 5 }

// fleetDays answers the population figures' one question: seen[k][d] is
// how many peers observers[k] saw on days[d], and union[k][d] how many
// distinct peers observers[0..k] saw between them that day. Each day is
// one pool.FanOut task that draws the observers in order into reused
// scratch and claims their peers into the day's sim.ClaimSet, so the
// counts are the same at any worker count.
func fleetDays(ctx context.Context, s *Study, observers []*sim.Observer, days []int) (seen, union [][]int, err error) {
	seen, union = make([][]int, len(observers)), make([][]int, len(observers))
	for k := range observers {
		seen[k], union[k] = make([]int, len(days)), make([]int, len(days))
	}
	err = pool.FanOut(ctx, len(days), s.Workers(), func(d int) error {
		day := days[d]
		active, claimed := s.Net.ActivePeers(day), s.Net.NewClaimSet()
		var pos []int32
		n := 0
		for k, o := range observers {
			pos = o.DrawDay(day, pos[:0])
			for _, j := range pos {
				if claimed.Claim(int(active[j])) {
					n++
				}
			}
			seen[k][d], union[k][d] = len(pos), n
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return seen, union, nil
}

func runFigure02(ctx context.Context, s *Study) (*Result, error) {
	fig := &stats.Figure{
		Title:  "Figure 2: peers observed by one high-end router, 5 days per mode",
		XLabel: "day",
		YLabel: "observed peers",
	}
	ffSeries := fig.AddSeries("floodfill")
	nfSeries := fig.AddSeries("non-floodfill")
	ff := s.Net.NewObserver(sim.ObserverConfig{Name: "f2-ff", Floodfill: true, SharedKBps: sim.MaxSharedKBps, Seed: 21})
	nf := s.Net.NewObserver(sim.ObserverConfig{Name: "f2-nf", Floodfill: false, SharedKBps: sim.MaxSharedKBps, Seed: 22})
	// Five days per mode: the ff observer covers days 2-6, the nf
	// observer days 7-11.
	ffSeen, _, err := fleetDays(ctx, s, []*sim.Observer{ff}, []int{2, 3, 4, 5, 6})
	if err != nil {
		return nil, err
	}
	nfSeen, _, err := fleetDays(ctx, s, []*sim.Observer{nf}, []int{7, 8, 9, 10, 11})
	if err != nil {
		return nil, err
	}
	var ffSum, nfSum float64
	for d := 0; d < 5; d++ {
		n := float64(ffSeen[0][d])
		ffSeries.Append(float64(d+1), n)
		ffSum += n
	}
	for d := 0; d < 5; d++ {
		n := float64(nfSeen[0][d])
		nfSeries.Append(float64(d+6), n)
		nfSum += n
	}
	return &Result{
		ID: "figure-02", Title: "Figure 2", Text: fig.Render(), Figure: fig,
		Metrics: map[string]float64{
			"mean_daily_ff":       ffSum / 5,
			"mean_daily_nonff":    nfSum / 5,
			"nonff_over_ff":       (nfSum / 5) / (ffSum / 5),
			"coverage_of_actives": (nfSum / 5) / float64(len(s.Net.ActivePeers(9))),
		},
	}, nil
}

func runFigure03(ctx context.Context, s *Study) (*Result, error) {
	day := s.experimentDay()
	fig := &stats.Figure{
		Title:  "Figure 3: peers observed vs shared bandwidth",
		XLabel: "shared bandwidth (KB/s)",
		YLabel: "observed peers",
	}
	ffS := fig.AddSeries("floodfill")
	nfS := fig.AddSeries("non-floodfill")
	bothS := fig.AddSeries("both")
	bandwidths := []int{128, 256, 1024, 2048, 3072, 4096, 5120}
	// One floodfill + one non-floodfill observer per bandwidth point,
	// their counts and pair union averaged over three days to suppress
	// sampling noise.
	days := []int{day - 2, day - 1, day}
	var ff128, nf128, ff5120, nf5120, unionMin, unionMax float64
	for i, bw := range bandwidths {
		pair := []*sim.Observer{
			s.Net.NewObserver(sim.ObserverConfig{Floodfill: true, SharedKBps: bw, Seed: uint64(31 + i)}),
			s.Net.NewObserver(sim.ObserverConfig{Floodfill: false, SharedKBps: bw, Seed: uint64(51 + i)}),
		}
		seen, union, err := fleetDays(ctx, s, pair, days)
		if err != nil {
			return nil, err
		}
		var ffN, nfN, unionN float64
		for d := range days {
			ffN += float64(seen[0][d])
			nfN += float64(seen[1][d])
			unionN += float64(union[1][d])
		}
		ffN, nfN, unionN = ffN/3, nfN/3, unionN/3
		ffS.Append(float64(bw), ffN)
		nfS.Append(float64(bw), nfN)
		bothS.Append(float64(bw), unionN)
		switch bw {
		case 128:
			ff128, nf128 = ffN, nfN
		case 5120:
			ff5120, nf5120 = ffN, nfN
		}
		if unionMin == 0 || unionN < unionMin {
			unionMin = unionN
		}
		if unionN > unionMax {
			unionMax = unionN
		}
	}
	return &Result{
		ID: "figure-03", Title: "Figure 3", Text: fig.Render(), Figure: fig,
		Metrics: map[string]float64{
			"ff_advantage_at_128":    ff128 - nf128,
			"nonff_advantage_at_5mb": nf5120 - ff5120,
			"union_spread_ratio":     (unionMax - unionMin) / unionMax,
			"union_max":              unionMax,
		},
	}, nil
}

func runFigure04(ctx context.Context, s *Study) (*Result, error) {
	fig := &stats.Figure{
		Title:  "Figure 4: cumulative peers observed by 1-40 routers",
		XLabel: "routers under our control",
		YLabel: "observed peers",
	}
	series := fig.AddSeries("cumulative peers")
	observers := make([]*sim.Observer, 40)
	for i := range observers {
		observers[i] = s.Net.NewObserver(sim.ObserverConfig{
			Floodfill:  i%2 == 0,
			SharedKBps: sim.MaxSharedKBps,
			Seed:       uint64(400 + i),
		})
	}
	// The paper ran the fleet for five days and reports the cumulative
	// number of peers observed daily across the first k routers; average
	// the per-day union over the same five days.
	days := []int{6, 7, 8, 9, 10}
	_, union, err := fleetDays(ctx, s, observers, days)
	if err != nil {
		return nil, err
	}
	for k := range observers {
		sum := 0
		for _, n := range union[k] {
			sum += n
		}
		series.Append(float64(k+1), float64(sum)/float64(len(days)))
	}
	total40 := series.Y[len(series.Y)-1]
	var at20 float64
	if y, ok := series.YAt(20); ok {
		at20 = y
	}
	var at1 float64
	if y, ok := series.YAt(1); ok {
		at1 = y
	}
	return &Result{
		ID: "figure-04", Title: "Figure 4", Text: fig.Render(), Figure: fig,
		Metrics: map[string]float64{
			"total_at_40":          total40,
			"share_at_20":          at20 / total40,
			"share_at_1":           at1 / total40,
			"tail_gain_per_router": (total40 - at20) / 20,
		},
	}, nil
}

func runFigure05(ctx context.Context, s *Study) (*Result, error) {
	ds, err := s.MainDatasetContext(ctx)
	if err != nil {
		return nil, err
	}
	fig := ds.PopulationTimeline()
	var ipSum, v4Sum, v6Sum float64
	for _, d := range ds.Days {
		ipSum += float64(d.IPAll)
		v4Sum += float64(d.IPv4)
		v6Sum += float64(d.IPv6)
	}
	n := float64(len(ds.Days))
	return &Result{
		ID: "figure-05", Title: "Figure 5", Text: fig.Render(), Figure: fig,
		Metrics: map[string]float64{
			"mean_daily_peers": ds.MeanDailyPeers(),
			"mean_daily_ips":   ipSum / n,
			"mean_daily_ipv4":  v4Sum / n,
			"mean_daily_ipv6":  v6Sum / n,
			"total_peers":      float64(ds.TotalPeers()),
		},
	}, nil
}

func runFigure06(ctx context.Context, s *Study) (*Result, error) {
	ds, err := s.MainDatasetContext(ctx)
	if err != nil {
		return nil, err
	}
	fig := ds.UnknownIPTimeline()
	var unknown, fw, hidden, overlap float64
	for _, d := range ds.Days {
		unknown += float64(d.UnknownIP)
		fw += float64(d.Firewalled)
		hidden += float64(d.Hidden)
		overlap += float64(d.Overlap)
	}
	n := float64(len(ds.Days))
	return &Result{
		ID: "figure-06", Title: "Figure 6", Text: fig.Render(), Figure: fig,
		Metrics: map[string]float64{
			"mean_daily_unknown":    unknown / n,
			"mean_daily_firewalled": fw / n,
			"mean_daily_hidden":     hidden / n,
			"mean_daily_overlap":    overlap / n,
		},
	}, nil
}

func runFigure07(ctx context.Context, s *Study) (*Result, error) {
	ds, err := s.MainDatasetContext(ctx)
	if err != nil {
		return nil, err
	}
	fig, pts := ds.ChurnFigureWith(7, 30)
	p7, p30 := pts[0], pts[1]
	km := ds.SurvivalAt(7, 30)
	return &Result{
		ID: "figure-07", Title: "Figure 7", Text: fig.Render(), Figure: fig,
		Metrics: map[string]float64{
			"continuous_7d":    p7.Continuous,
			"intermittent_7d":  p7.Intermittent,
			"continuous_30d":   p30.Continuous,
			"intermittent_30d": p30.Intermittent,
			// Kaplan–Meier right-censoring correction: the finite study
			// window depresses the naive long-horizon shares; these are
			// the corrected counterparts of the intermittent curve.
			"km_intermittent_7d":  km[0],
			"km_intermittent_30d": km[1],
		},
	}, nil
}

func runFigure08(ctx context.Context, s *Study) (*Result, error) {
	ds, err := s.MainDatasetContext(ctx)
	if err != nil {
		return nil, err
	}
	h := ds.IPChurnHistogram(16)
	single, multi, _ := ds.IPCountShares()
	// The >100-address tail needs hourly capture resolution, which the
	// daily pipeline lacks; compute it from the simulator's ground-truth
	// schedules.
	over100 := 0
	knownIP := 0
	for _, p := range s.Net.Peers {
		if p.Status != sim.StatusKnownIP {
			continue
		}
		knownIP++
		if p.UniqueIPs() > 100 {
			over100++
		}
	}
	rows := [][]string{{"IPs", "peers", "share"}}
	for _, v := range h.Values() {
		rows = append(rows, []string{fmt.Sprint(v), fmt.Sprint(h.Count(v)), fmt.Sprintf("%.1f%%", h.Share(v))})
	}
	text := "Figure 8: number of IP addresses peers are associated with\n" + stats.RenderTable(rows)
	return &Result{
		ID: "figure-08", Title: "Figure 8", Text: text,
		Metrics: map[string]float64{
			"single_ip_pct":   single,
			"multi_ip_pct":    multi,
			"over100_ip_pct":  100 * float64(over100) / float64(knownIP),
			"histogram_total": float64(h.Total()),
		},
	}, nil
}

func runFigure09(ctx context.Context, s *Study) (*Result, error) {
	ds, err := s.MainDatasetContext(ctx)
	if err != nil {
		return nil, err
	}
	rows := [][]string{{"class", "mean daily peers"}}
	m := map[string]float64{}
	for _, cl := range netdb.BandwidthClasses {
		mean := ds.MeanDailyClassCount(cl)
		m["mean_daily_"+cl.String()] = mean
		rows = append(rows, []string{cl.String(), fmt.Sprintf("%.0f", mean)})
	}
	text := "Figure 9: capacity distribution of I2P peers\n" + stats.RenderTable(rows)
	return &Result{ID: "figure-09", Title: "Figure 9", Text: text, Metrics: m}, nil
}

func runTable01(ctx context.Context, s *Study) (*Result, error) {
	ds, err := s.MainDatasetContext(ctx)
	if err != nil {
		return nil, err
	}
	table := ds.Table1()
	return &Result{
		ID: "table-01", Title: "Table 1", Text: ds.RenderTable1(),
		Metrics: map[string]float64{
			"floodfill_N_pct":   table[netdb.ClassN]["floodfill"],
			"floodfill_L_pct":   table[netdb.ClassL]["floodfill"],
			"reachable_L_pct":   table[netdb.ClassL]["reachable"],
			"unreachable_L_pct": table[netdb.ClassL]["unreachable"],
			"total_L_pct":       table[netdb.ClassL]["total"],
			"total_N_pct":       table[netdb.ClassN]["total"],
		},
	}, nil
}

func runEstimateFloodfill(ctx context.Context, s *Study) (*Result, error) {
	ds, err := s.MainDatasetContext(ctx)
	if err != nil {
		return nil, err
	}
	est := ds.EstimateFloodfillPopulation()
	text := fmt.Sprintf(
		"mean daily floodfills: %.0f (%.1f%% of peers)\nqualified share: %.1f%%\nqualified daily: %.0f\npopulation estimate (qualified / 6%%): %.0f\n",
		est.MeanDailyFloodfills, 100*est.FloodfillShare, 100*est.QualifiedShare, est.QualifiedDaily, est.PopulationEstimate)
	return &Result{
		ID: "estimate-floodfill", Title: "Section 5.3.1 estimate", Text: text,
		Metrics: map[string]float64{
			"floodfill_share":     est.FloodfillShare,
			"qualified_share":     est.QualifiedShare,
			"population_estimate": est.PopulationEstimate,
			"estimate_vs_actual":  est.PopulationEstimate / float64(s.Opts.TargetDailyPeers),
		},
	}, nil
}

func runFigure10(ctx context.Context, s *Study) (*Result, error) {
	ds, err := s.MainDatasetContext(ctx)
	if err != nil {
		return nil, err
	}
	countries := ds.CountryCounter()
	top := countries.Top(20)
	shares := countries.CumulativeShare(top)
	cens := ds.CensoredPeers(s.Net.GeoDB())
	big6 := 0
	for _, cc := range []string{"US", "RU", "GB", "FR", "CA", "AU"} {
		big6 += countries.Get(cc)
	}
	text := "Figure 10: top 20 countries\n" + measure.TopGeo(countries, 20, "country")
	return &Result{
		ID: "figure-10", Title: "Figure 10", Text: text,
		Metrics: map[string]float64{
			"us_peers":           float64(countries.Get("US")),
			"big6_share_pct":     100 * float64(big6) / float64(countries.Total()),
			"top20_share_pct":    shares[len(shares)-1],
			"censored_countries": float64(cens.Countries),
			"censored_peers":     float64(cens.TotalPeers),
			"cn_peers":           float64(countries.Get("CN")),
		},
	}, nil
}

func runFigure11(ctx context.Context, s *Study) (*Result, error) {
	ds, err := s.MainDatasetContext(ctx)
	if err != nil {
		return nil, err
	}
	ases := ds.ASCounter()
	top := ases.Top(20)
	shares := ases.CumulativeShare(top)
	text := "Figure 11: top 20 autonomous systems\n" + measure.TopGeo(ases, 20, "ASN")
	return &Result{
		ID: "figure-11", Title: "Figure 11", Text: text,
		Metrics: map[string]float64{
			"as7922_peers":    float64(ases.Get("7922")),
			"top20_share_pct": shares[len(shares)-1],
		},
	}, nil
}

func runFigure12(ctx context.Context, s *Study) (*Result, error) {
	ds, err := s.MainDatasetContext(ctx)
	if err != nil {
		return nil, err
	}
	h := ds.ASChurnHistogram(10)
	single, over10, maxASes := ds.ASCountShares()
	rows := [][]string{{"ASes", "peers", "share"}}
	for _, v := range h.Values() {
		rows = append(rows, []string{fmt.Sprint(v), fmt.Sprint(h.Count(v)), fmt.Sprintf("%.1f%%", h.Share(v))})
	}
	text := "Figure 12: autonomous systems per peer\n" + stats.RenderTable(rows)
	return &Result{
		ID: "figure-12", Title: "Figure 12", Text: text,
		Metrics: map[string]float64{
			"single_as_pct": single,
			"over10_as_pct": over10,
			"max_ases":      float64(maxASes),
		},
	}, nil
}

func runFigure13(ctx context.Context, s *Study) (*Result, error) {
	day := s.experimentDay()
	fig, err := censor.Figure13Context(ctx, s.Net, 20, []int{1, 5, 10, 20, 30}, day, 700, s.Workers())
	if err != nil {
		return nil, err
	}
	get := func(series string, k float64) float64 {
		sr := fig.FindSeries(series)
		if sr == nil {
			return 0
		}
		y, _ := sr.YAt(k)
		return y
	}
	return &Result{
		ID: "figure-13", Title: "Figure 13", Text: fig.Render(), Figure: fig,
		Metrics: map[string]float64{
			"rate_2routers_1day":   get("1 day", 2),
			"rate_6routers_1day":   get("1 day", 6),
			"rate_20routers_1day":  get("1 day", 20),
			"rate_10routers_5day":  get("5 day", 10),
			"rate_20routers_30day": get("30 day", 20),
		},
	}, nil
}

func runFigure14(ctx context.Context, s *Study) (*Result, error) {
	day := s.experimentDay()
	// The client's netDb: what the victim knows on the experiment day.
	victim := censor.NewVictim(s.Net, 911)
	pcg := rand.NewPCG(14, 14)
	known := victim.KnownPeers(day)
	candidates := make([]*netdb.RouterInfo, 0, len(known))
	for _, idx := range known {
		p := s.Net.Peers[idx]
		candidates = append(candidates, s.Net.RouterInfo(day, s.Net.SightingFor(p, day, pcg)))
	}
	// One hop pool for every blocking level: the levels differ only in
	// what the firewall drops, not in what the victim knows.
	hops := tunnel.DefaultSelector().Prepare(candidates)
	site := eepsite.NewSite(netdb.HashFromUint64(424242))
	rates := []float64{0, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 0.97}
	fig := &stats.Figure{
		Title:  "Figure 14: timeouts and page load vs blocking rate",
		XLabel: "blocking rate (%)",
		YLabel: "timeout % / load (s)",
	}
	timeouts := fig.AddSeries("timed out requests (%)")
	loads := fig.AddSeries("page load time (s)")
	metrics := map[string]float64{}
	// Each blocking level crawls with its own rate-derived RNG, so the
	// levels are independent cells: fan them across the engine pool and
	// fold the figure serially in rate order.
	crawls := make([]eepsite.CrawlStats, len(rates))
	err := pool.FanOut(ctx, len(rates), s.Workers(), func(i int) error {
		blocked := hashBlockFraction(rates[i])
		client := eepsite.NewPoolClient(hops, blocked)
		st, err := client.Crawl(site, 100, rand.New(rand.NewPCG(uint64(rates[i]*1000)+1, 99)))
		if err != nil {
			return err
		}
		crawls[i] = st
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, rate := range rates {
		st := crawls[i]
		timeouts.Append(rate*100, st.TimeoutPct())
		loads.Append(rate*100, st.MeanLoad.Seconds())
		switch rate {
		case 0:
			metrics["load_unblocked_s"] = st.MeanLoad.Seconds()
			metrics["timeout_unblocked_pct"] = st.TimeoutPct()
		case 0.65:
			metrics["load_65_s"] = st.MeanLoad.Seconds()
			metrics["timeout_65_pct"] = st.TimeoutPct()
		case 0.80:
			metrics["load_80_s"] = st.MeanLoad.Seconds()
			metrics["timeout_80_pct"] = st.TimeoutPct()
		case 0.95:
			metrics["timeout_95_pct"] = st.TimeoutPct()
		}
	}
	return &Result{ID: "figure-14", Title: "Figure 14", Text: fig.Render(), Figure: fig, Metrics: metrics}, nil
}

// hashBlockFraction blocks a deterministic pseudo-random fraction of peers
// by identity hash — the firewall's view of a blacklist covering `rate` of
// the victim's peers.
func hashBlockFraction(rate float64) func(netdb.Hash) bool {
	return func(h netdb.Hash) bool {
		v := float64(uint16(h[2])<<8|uint16(h[3])) / 65535
		return v < rate
	}
}

func runReseedBlocking(ctx context.Context, s *Study) (*Result, error) {
	day := 2
	pcg := rand.NewPCG(61, 61)
	// Reseed servers serve live RouterInfos from the network.
	provider := func() []*netdb.RouterInfo {
		var out []*netdb.RouterInfo
		for i, idx := range s.Net.ActivePeers(day) {
			if i >= 600 {
				break
			}
			p := s.Net.Peers[idx]
			if p.Status == sim.StatusKnownIP {
				out = append(out, s.Net.RouterInfo(day, s.Net.SightingFor(p, day, pcg)))
			}
		}
		return out
	}
	a := reseed.NewServer(reseed.DefaultPerRequest, provider, 71)
	b := reseed.NewServer(reseed.DefaultPerRequest, provider, 72)

	boot, err := reseed.Bootstrap([]*reseed.Server{a, b}, "new-client")
	if err != nil {
		return nil, err
	}
	// Censor blocks all reseed servers: bootstrap must fail.
	_, blockedErr := reseed.Bootstrap(nil, "censored-client")
	// Manual reseed: a friend exports a bundle; the censored client loads it.
	bundle, err := reseed.CreateBundle(boot, "friend", s.Net.DayTime(day))
	if err != nil {
		return nil, err
	}
	parsed, err := reseed.ParseBundle(bundle)
	if err != nil {
		return nil, err
	}
	text := fmt.Sprintf(
		"bootstrap records from 2 reseeds: %d\nbootstrap with all reseeds blocked: %v\nmanual i2pseeds bundle records: %d (signed by %q)\n",
		len(boot), blockedErr, len(parsed.Records), parsed.Signer)
	failed := 0.0
	if blockedErr != nil {
		failed = 1
	}
	return &Result{
		ID: "reseed-blocking", Title: "Section 6.1", Text: text,
		Metrics: map[string]float64{
			"bootstrap_records":      float64(len(boot)),
			"blocked_bootstrap_fail": failed,
			"manual_records":         float64(len(parsed.Records)),
		},
	}, nil
}

func runBridgeStrategies(ctx context.Context, s *Study) (*Result, error) {
	evs, err := censor.EvaluateBridgesContext(ctx, s.Net, 5, s.experimentDay()-11, s.Workers())
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	rows := [][]string{{"strategy", "pool", "initial usable", "final usable"}}
	metrics := map[string]float64{}
	for _, e := range evs {
		rows = append(rows, []string{
			e.Strategy.String(),
			fmt.Sprint(e.PoolSize),
			fmt.Sprintf("%.2f", e.InitialUsable()),
			fmt.Sprintf("%.2f", e.FinalUsable()),
		})
		metrics[e.Strategy.String()+"_initial"] = e.InitialUsable()
		metrics[e.Strategy.String()+"_final"] = e.FinalUsable()
	}
	sb.WriteString("Section 7.1 bridge strategies\n")
	sb.WriteString(stats.RenderTable(rows))
	return &Result{ID: "bridge-strategies", Title: "Section 7.1", Text: sb.String(), Metrics: metrics}, nil
}

func runDPIFingerprinting(ctx context.Context, s *Study) (*Result, error) {
	flows := 8
	detect := func(variant transport.Variant) (float64, error) {
		var mb transport.Middlebox
		cfg := transport.Config{Variant: variant, RouterHash: netdb.HashFromUint64(777)}
		// Each flow handshakes over an in-memory pipe: the study opens no
		// socket. Closing a side on return unblocks a peer left mid-message.
		for range flows {
			cc, sc := net.Pipe()
			served := make(chan error, 1)
			go func() {
				_, err := transport.ServerHandshake(sc, cfg)
				sc.Close()
				served <- err
			}()
			c, err := transport.ClientHandshake(cc, cfg)
			cc.Close()
			if serr := <-served; err == nil {
				err = serr
			}
			if err != nil {
				return 0, err
			}
			mb.Observe(c.HandshakeTrace())
		}
		return mb.DetectionRate(), nil
	}
	ntcpRate, err := detect(transport.VariantNTCP)
	if err != nil {
		return nil, err
	}
	ntcp2Rate, err := detect(transport.VariantNTCP2)
	if err != nil {
		return nil, err
	}
	text := fmt.Sprintf("DPI detection rate over %d flows each:\n  NTCP:  %.2f\n  NTCP2: %.2f\n", flows, ntcpRate, ntcp2Rate)
	return &Result{
		ID: "dpi-fingerprinting", Title: "Section 2.2.2", Text: text,
		Metrics: map[string]float64{
			"ntcp_detection_rate":  ntcpRate,
			"ntcp2_detection_rate": ntcp2Rate,
		},
	}, nil
}

func runPortBlocking(ctx context.Context, s *Study) (*Result, error) {
	res := censor.EvaluatePortBlocking(200_000, 20_000, s.Opts.Seed)
	rows := [][]string{{"technique", "I2P blocked", "collateral"}}
	rows = append(rows, []string{
		"port range 9000-31000",
		fmt.Sprintf("%.1f%%", res.I2PBlockedPct),
		fmt.Sprintf("%.1f%% of legitimate flows", res.CollateralPct),
	})
	rows = append(rows, []string{
		"address blacklist (Section 6.2)",
		"per Figure 13",
		fmt.Sprintf("%.1f%%", censor.EvaluateAddressBlockingCollateral(s.Net)),
	})
	text := "Section 2.2.2: port blocking vs address blocking\n" + stats.RenderTable(rows)
	text += "\nworst-hit applications:\n"
	worst := []string{"webrtc-media", "game-steam", "game-minecraft", "bittorrent"}
	for _, app := range worst {
		if pct, ok := res.CollateralByApp[app]; ok {
			text += fmt.Sprintf("  %-16s %.1f%% of its flows blocked\n", app, pct)
		}
	}
	return &Result{
		ID: "port-blocking", Title: "Section 2.2.2", Text: text,
		Metrics: map[string]float64{
			"i2p_blocked_pct":        res.I2PBlockedPct,
			"collateral_pct":         res.CollateralPct,
			"webrtc_collateral_pct":  res.CollateralByApp["webrtc-media"],
			"address_collateral_pct": censor.EvaluateAddressBlockingCollateral(s.Net),
		},
	}, nil
}

func runEclipseAttack(ctx context.Context, s *Study) (*Result, error) {
	day := s.experimentDay()
	// Inject attacker routers amounting to ~1% of the network — cheap for
	// a censor that already runs monitoring infrastructure.
	injected := s.Opts.TargetDailyPeers / 100
	if injected < 5 {
		injected = 5
	}
	fig, results, err := censor.EclipseSweepContext(ctx, s.Net, []int{2, 6, 10, 20}, 5, injected, day, 7200, s.Workers())
	if err != nil {
		return nil, err
	}
	metrics := map[string]float64{"injected": float64(injected)}
	for _, r := range results {
		metrics[fmt.Sprintf("attacker_share_%drouters", r.CensorRouters)] = r.AttackerShare
	}
	text := "Section 7.2: blocking escalates to an eclipse attack\n" + censor.RenderEclipse(results)
	return &Result{
		ID: "eclipse-attack", Title: "Section 7.2", Text: text, Figure: fig,
		Metrics: metrics,
	}, nil
}

func runAblationObserverMix(ctx context.Context, s *Study) (*Result, error) {
	day := s.experimentDay()
	// Three 6-router fleets: all floodfill, all non-floodfill, 3 + 3.
	var cover [3]float64
	for f, m := range [3]struct {
		ff, nf   int
		seedBase uint64
	}{{6, 0, 800}, {0, 6, 900}, {3, 3, 1000}} {
		var fleet []*sim.Observer
		for i := 0; i < m.ff; i++ {
			fleet = append(fleet, s.Net.NewObserver(sim.ObserverConfig{Floodfill: true, SharedKBps: sim.MaxSharedKBps, Seed: m.seedBase + uint64(i)}))
		}
		for i := 0; i < m.nf; i++ {
			fleet = append(fleet, s.Net.NewObserver(sim.ObserverConfig{Floodfill: false, SharedKBps: sim.MaxSharedKBps, Seed: m.seedBase + 100 + uint64(i)}))
		}
		_, union, err := fleetDays(ctx, s, fleet, []int{day})
		if err != nil {
			return nil, err
		}
		cover[f] = float64(union[len(fleet)-1][0])
	}
	allFF, allNF, half := cover[0], cover[1], cover[2]
	rows := [][]string{
		{"fleet", "union coverage"},
		{"6 floodfill", fmt.Sprintf("%.0f", allFF)},
		{"6 non-floodfill", fmt.Sprintf("%.0f", allNF)},
		{"3 + 3 mixed", fmt.Sprintf("%.0f", half)},
	}
	return &Result{
		ID: "ablation-observer-mix", Title: "Observer mode mix ablation",
		Text: stats.RenderTable(rows),
		Metrics: map[string]float64{
			"all_ff":    allFF,
			"all_nonff": allNF,
			"mixed":     half,
		},
	}, nil
}

func runAblationFloodFanout(ctx context.Context, s *Study) (*Result, error) {
	// Replication study over the real netdb machinery: one fresh
	// RouterInfo is stored to the 4 floodfills closest to its routing key,
	// each of which floods it to its own `fanout` closest floodfills.
	// Measured: distinct floodfills holding the record afterwards.
	day := 5
	now := s.Net.DayTime(day)
	var floodfills []netdb.Hash
	for _, idx := range s.Net.ActivePeers(day) {
		p := s.Net.Peers[idx]
		if p.Floodfill {
			floodfills = append(floodfills, p.ID)
		}
	}
	if len(floodfills) < 20 {
		return nil, fmt.Errorf("core: only %d floodfills active", len(floodfills))
	}
	record := netdb.HashFromUint64(31337)
	replicate := func(fanout int) int {
		holding := make(map[netdb.Hash]bool)
		initial := netdb.ClosestTo(record, floodfills, 4, now)
		for _, ff := range initial {
			holding[ff] = true
		}
		// One flooding round per initial holder, as the Java router does
		// for fresh entries.
		for _, ff := range initial {
			for _, peer := range netdb.ClosestTo(ff, floodfills, fanout+1, now) {
				if peer != ff {
					holding[peer] = true
				}
			}
		}
		return len(holding)
	}
	rows := [][]string{{"fanout", "floodfills holding record"}}
	metrics := map[string]float64{}
	for _, fanout := range []int{1, netdb.FloodFanout, 8} {
		n := replicate(fanout)
		rows = append(rows, []string{fmt.Sprint(fanout), fmt.Sprint(n)})
		metrics[fmt.Sprintf("replicas_fanout_%d", fanout)] = float64(n)
	}
	return &Result{
		ID: "ablation-flood-fanout", Title: "Flooding fan-out ablation",
		Text:    stats.RenderTable(rows),
		Metrics: metrics,
	}, nil
}
