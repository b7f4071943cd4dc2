// The benchmark harness regenerates every table and figure in the paper's
// evaluation. Each BenchmarkFigureNN / BenchmarkTableNN runs the
// corresponding experiment from the registry and reports its headline
// metrics via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation and prints paper-comparable numbers
// (scaled by Study.Scale(); see EXPERIMENTS.md for the paper-vs-measured
// record). Micro-benchmarks for the hot substrate paths (codec, routing
// keys, Kademlia selection, garlic layering) follow at the bottom.
package i2pstudy_test

import (
	"context"
	"net/netip"
	"sync"
	"testing"
	"time"

	"github.com/i2pstudy/i2pstudy"
	"github.com/i2pstudy/i2pstudy/internal/censor"
	"github.com/i2pstudy/i2pstudy/internal/measure"
	"github.com/i2pstudy/i2pstudy/internal/netdb"
	"github.com/i2pstudy/i2pstudy/internal/sim"
	"github.com/i2pstudy/i2pstudy/internal/tunnel"
)

var (
	studyOnce sync.Once
	studyVal  *i2pstudy.Study
	studyErr  error
)

// benchStudy builds the shared 1/10-scale study once. Building costs a few
// hundred milliseconds and would otherwise dominate every benchmark. In
// -short mode (CI's benchmark smoke job) the network is scaled down
// further: reported metrics shift with scale, but every code path still
// runs.
func benchStudy(b *testing.B) *i2pstudy.Study {
	b.Helper()
	studyOnce.Do(func() {
		opts := i2pstudy.DefaultOptions()
		if testing.Short() {
			opts.TargetDailyPeers = 1000
		}
		studyVal, studyErr = i2pstudy.NewStudy(opts)
		if studyErr == nil {
			// Pre-run the main campaign so dataset-backed experiments
			// measure analysis cost, not the shared campaign.
			_, studyErr = studyVal.MainDataset()
		}
	})
	if studyErr != nil {
		b.Fatal(studyErr)
	}
	return studyVal
}

// skipIfShort guards the heaviest artifact regenerations (multi-day
// observation sweeps, blocking/eclipse Monte Carlo, live-socket crawls)
// so the -short smoke pass finishes in minutes.
func skipIfShort(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("heavy benchmark skipped in -short mode")
	}
}

// benchmarkExperiment runs one registry experiment per iteration and
// reports the chosen metrics from the final run.
func benchmarkExperiment(b *testing.B, id string, metrics ...string) {
	s := benchStudy(b)
	b.ResetTimer()
	var res *i2pstudy.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = s.RunExperiment(id)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, m := range metrics {
		v, ok := res.Metrics[m]
		if !ok {
			b.Fatalf("experiment %s lacks metric %s", id, m)
		}
		b.ReportMetric(v, m)
	}
}

func BenchmarkFigure02SingleRouterModes(b *testing.B) {
	benchmarkExperiment(b, "figure-02", "mean_daily_ff", "mean_daily_nonff", "coverage_of_actives")
}

func BenchmarkFigure03BandwidthSweep(b *testing.B) {
	skipIfShort(b)
	benchmarkExperiment(b, "figure-03", "ff_advantage_at_128", "nonff_advantage_at_5mb", "union_spread_ratio")
}

func BenchmarkFigure04RouterScaling(b *testing.B) {
	skipIfShort(b)
	benchmarkExperiment(b, "figure-04", "share_at_20", "share_at_1", "total_at_40")
}

func BenchmarkFigure05PopulationTimeline(b *testing.B) {
	benchmarkExperiment(b, "figure-05", "mean_daily_peers", "mean_daily_ips", "mean_daily_ipv6")
}

func BenchmarkFigure06UnknownIPPeers(b *testing.B) {
	benchmarkExperiment(b, "figure-06", "mean_daily_unknown", "mean_daily_firewalled", "mean_daily_hidden", "mean_daily_overlap")
}

func BenchmarkFigure07ChurnLongevity(b *testing.B) {
	benchmarkExperiment(b, "figure-07", "continuous_7d", "intermittent_7d", "continuous_30d", "intermittent_30d")
}

func BenchmarkFigure08IPChurnHistogram(b *testing.B) {
	benchmarkExperiment(b, "figure-08", "single_ip_pct", "multi_ip_pct", "over100_ip_pct")
}

func BenchmarkFigure09CapacityDistribution(b *testing.B) {
	benchmarkExperiment(b, "figure-09", "mean_daily_L", "mean_daily_N", "mean_daily_P", "mean_daily_X")
}

func BenchmarkTable01BandwidthGroups(b *testing.B) {
	benchmarkExperiment(b, "table-01", "floodfill_N_pct", "floodfill_L_pct", "total_L_pct", "total_N_pct")
}

func BenchmarkEstimateFloodfillPopulation(b *testing.B) {
	benchmarkExperiment(b, "estimate-floodfill", "floodfill_share", "qualified_share", "estimate_vs_actual")
}

func BenchmarkFigure10CountryDistribution(b *testing.B) {
	benchmarkExperiment(b, "figure-10", "big6_share_pct", "top20_share_pct", "censored_countries")
}

func BenchmarkFigure11ASDistribution(b *testing.B) {
	benchmarkExperiment(b, "figure-11", "as7922_peers", "top20_share_pct")
}

func BenchmarkFigure12ASChurn(b *testing.B) {
	benchmarkExperiment(b, "figure-12", "single_as_pct", "over10_as_pct", "max_ases")
}

func BenchmarkFigure13BlockingRates(b *testing.B) {
	skipIfShort(b)
	benchmarkExperiment(b, "figure-13",
		"rate_2routers_1day", "rate_6routers_1day", "rate_20routers_1day",
		"rate_10routers_5day", "rate_20routers_30day")
}

func BenchmarkFigure14UsabilityUnderBlocking(b *testing.B) {
	skipIfShort(b)
	benchmarkExperiment(b, "figure-14",
		"load_unblocked_s", "load_65_s", "timeout_65_pct", "timeout_95_pct")
}

func BenchmarkReseedBlocking(b *testing.B) {
	benchmarkExperiment(b, "reseed-blocking", "bootstrap_records", "blocked_bootstrap_fail", "manual_records")
}

func BenchmarkBridgeStrategies(b *testing.B) {
	skipIfShort(b)
	benchmarkExperiment(b, "bridge-strategies",
		"random_initial", "random_final",
		"newly-joined_initial", "newly-joined_final",
		"firewalled_initial", "firewalled_final")
}

func BenchmarkDPIFingerprinting(b *testing.B) {
	skipIfShort(b)
	benchmarkExperiment(b, "dpi-fingerprinting", "ntcp_detection_rate", "ntcp2_detection_rate")
}

func BenchmarkPortBlockingCollateral(b *testing.B) {
	benchmarkExperiment(b, "port-blocking",
		"i2p_blocked_pct", "collateral_pct", "webrtc_collateral_pct")
}

func BenchmarkEclipseAttack(b *testing.B) {
	skipIfShort(b)
	benchmarkExperiment(b, "eclipse-attack",
		"attacker_share_2routers", "attacker_share_20routers")
}

func BenchmarkBridgeDistribution(b *testing.B) {
	skipIfShort(b)
	benchmarkExperiment(b, "bridge-distribution",
		"https_crawler_bootstrap_final", "https_crawler_enumerated_final",
		"manual-reseed_crawler_enumerated_final", "manual-reseed_insider_enumerated_final")
}

func BenchmarkDistributionEnumeration(b *testing.B) {
	skipIfShort(b)
	benchmarkExperiment(b, "distribution-enumeration",
		"https_crawler_days_to_half", "https_crawler_bootstrap_final",
		"social_crawler_bootstrap_final")
}

func BenchmarkAblationObserverModeMix(b *testing.B) {
	benchmarkExperiment(b, "ablation-observer-mix", "all_ff", "all_nonff", "mixed")
}

func BenchmarkAblationFloodFanout(b *testing.B) {
	benchmarkExperiment(b, "ablation-flood-fanout",
		"replicas_fanout_1", "replicas_fanout_3", "replicas_fanout_8")
}

// benchmarkMainCampaign measures one 4-observer, 10-day campaign run at
// the given engine width (the shared dataset used by Figures 5-12 is
// cached; this one is not).
func benchmarkMainCampaign(b *testing.B, workers int) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := measure.NewCampaign(s.Net, measure.CampaignConfig{
			Observers: measure.DefaultObserverFleet(4),
			StartDay:  0,
			EndDay:    10,
			Workers:   workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		ds, err := c.Run()
		if err != nil {
			b.Fatal(err)
		}
		if ds.TotalPeers() == 0 {
			b.Fatal("empty campaign")
		}
	}
}

// BenchmarkMainCampaign is the serial reference; BenchmarkMainCampaignParallel
// runs the same campaign with one worker per CPU. The ratio between the
// two is the engine's speedup on this machine (1.0 on a single core).
func BenchmarkMainCampaign(b *testing.B)         { benchmarkMainCampaign(b, 1) }
func BenchmarkMainCampaignParallel(b *testing.B) { benchmarkMainCampaign(b, 0) }

// benchmarkAdversarySweep measures the Figure 13 adversary sweep (the
// censor engine's hot path: 20 monitoring routers x a 30-day blacklist
// tail of captures, folded into five window series) at the given engine
// width. In -short mode the shared study is scaled down but the pair
// still runs, so the CI bench smoke exercises the sweep engine; the
// focused serial/parallel pair lives in internal/censor, beside the
// rolling-window engine's rolling-vs-from-scratch trio
// (BenchmarkSweepRolling*, BenchmarkSweepFromScratchSerial).
func benchmarkAdversarySweep(b *testing.B, workers int) {
	s := benchStudy(b)
	day := s.Opts.Days - 5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := censor.Figure13Context(context.Background(), s.Net, 20, []int{1, 5, 10, 20, 30}, day, 700, workers)
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Series) != 5 {
			b.Fatal("wrong series count")
		}
	}
}

func BenchmarkAdversarySweepSerial(b *testing.B)   { benchmarkAdversarySweep(b, 1) }
func BenchmarkAdversarySweepParallel(b *testing.B) { benchmarkAdversarySweep(b, 0) }

// --- substrate micro-benchmarks ---

func benchRouterInfo() *netdb.RouterInfo {
	return &netdb.RouterInfo{
		Identity:  netdb.HashFromUint64(1),
		Published: time.Unix(1517443200, 0).UTC(),
		Caps:      netdb.NewCaps(300, true, true),
		Version:   "0.9.34",
		Addresses: []netdb.RouterAddress{{
			Transport: netdb.TransportNTCP,
			Addr:      netip.MustParseAddr("203.0.113.5"),
			Port:      12345,
		}},
		Options: map[string]string{"netdb.knownRouters": "2500"},
	}
}

func BenchmarkRouterInfoEncode(b *testing.B) {
	ri := benchRouterInfo()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ri.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRouterInfoDecode(b *testing.B) {
	data, err := benchRouterInfo().Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := netdb.DecodeRouterInfo(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRoutingKey(b *testing.B) {
	h := netdb.HashFromUint64(42)
	at := time.Unix(1517443200, 0).UTC()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = h.RoutingKey(at)
	}
}

func BenchmarkClosestTo(b *testing.B) {
	cands := make([]netdb.Hash, 1000)
	for i := range cands {
		cands[i] = netdb.HashFromUint64(uint64(i + 1))
	}
	target := netdb.HashFromUint64(99999)
	at := time.Unix(1517443200, 0).UTC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = netdb.ClosestTo(target, cands, 8, at)
	}
}

func BenchmarkGarlicWrapTraverse(b *testing.B) {
	tn := &tunnel.Tunnel{
		ID:   7,
		Hops: []netdb.Hash{netdb.HashFromUint64(1), netdb.HashFromUint64(2), netdb.HashFromUint64(3)},
	}
	payload := make([]byte, 4096)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wrapped := tunnel.WrapLayers(tn, payload)
		if _, err := tunnel.TraverseTunnel(tn, wrapped); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObserveDay measures one observer-day over the shared network.
func BenchmarkObserveDay(b *testing.B) {
	s := benchStudy(b)
	o := s.Net.NewObserver(sim.ObserverConfig{
		Name:       "bench",
		Floodfill:  true,
		SharedKBps: sim.MaxSharedKBps,
		Seed:       4242,
	})
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		total += len(o.ObserveDay(i % s.Net.Days()))
	}
	if total == 0 {
		b.Fatal("observer saw nothing")
	}
}
