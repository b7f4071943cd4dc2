package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"

	"github.com/i2pstudy/i2pstudy/internal/censor"
	"github.com/i2pstudy/i2pstudy/internal/core"
	"github.com/i2pstudy/i2pstudy/internal/distrib"
	"github.com/i2pstudy/i2pstudy/internal/measure"
	"github.com/i2pstudy/i2pstudy/internal/obs"
	"github.com/i2pstudy/i2pstudy/internal/obs/promtest"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// days is every workload's study horizon: the CLIs' default.
const days = 45

// batchWorkload is census or blocking: build the network, then RunAll
// over the experiment IDs one of the batch CLIs owns, at Workers 0.
type batchWorkload struct {
	p       params
	peers   int
	ids     []string
	shape   func([]*core.Result, int) error // the paper-shape gate, nil at toy size
	layerFn func(*batchWorkload, *recorder) (sample, error)

	net     *sim.Network
	results []*core.Result
}

// newCensus is cmd/i2pmeasure's run at scale 0.2: the 20-observer ×
// 45-day streaming campaign, then the population and ablation artifacts.
func newCensus(p params) *batchWorkload {
	ids := append(core.ExperimentIDs(core.CategoryPopulation), core.ExperimentIDs(core.CategoryAblation)...)
	sort.Strings(ids)
	return newBatch(p, 6100, ids, censusShape, censusLayers)
}

// newBlocking is cmd/i2pcensor's run at paper scale: the censorship and
// distribution artifacts, no main campaign.
func newBlocking(p params) *batchWorkload {
	ids := append(core.ExperimentIDs(core.CategoryCensorship), core.ExperimentIDs(core.CategoryDistribution)...)
	return newBatch(p, 30500, ids, blockingShape, blockingLayers)
}

func newBatch(p params, peers int, ids []string, shape func([]*core.Result, int) error,
	layerFn func(*batchWorkload, *recorder) (sample, error)) *batchWorkload {
	if p.peers > 0 {
		shape = nil
	}
	return &batchWorkload{p: p, peers: p.peersOr(peers), ids: ids, shape: shape, layerFn: layerFn}
}

func newNetwork(seed uint64, peers int) (*sim.Network, error) {
	return sim.New(sim.Config{Seed: seed, Days: days, TargetDailyPeers: peers})
}

func (b *batchWorkload) setup() error {
	b.results = nil
	var err error
	b.net, err = newNetwork(b.p.seed, b.peers)
	return err
}

// study is a fresh Study over the iteration's network, as the CLIs
// build theirs: Workers stays 0, their default of one per CPU.
func (b *batchWorkload) study() *core.Study {
	opts := core.DefaultOptions()
	opts.Seed = b.p.seed
	opts.Days = days
	opts.TargetDailyPeers = b.peers
	return &core.Study{Opts: opts, Net: b.net}
}

func (b *batchWorkload) run(rec *recorder, parent int) error {
	return rec.do(parent, "core.RunAll", func(int) error {
		var err error
		b.results, err = b.study().RunAll(context.Background(), b.ids...)
		return err
	})
}

func (b *batchWorkload) own() sample { return nil }

func (b *batchWorkload) check(t *tally) string {
	t.ops(len(b.results), 0, "")
	if b.shape != nil {
		t.op(b.shape(b.results, b.peers))
	}
	return digestResults(b.results)
}

func (b *batchWorkload) layers(rec *recorder, _ sample) (sample, error) { return b.layerFn(b, rec) }

// digestResults is the SHA-256 over every Result's ID, Text and sorted
// Metrics. It must not change between iterations of one run; between
// commits it changes whenever an engine's output deliberately does.
func digestResults(results []*core.Result) string {
	h := sha256.New()
	for _, r := range results {
		fmt.Fprintf(h, "%s\n%s\n", r.ID, r.Text)
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "%s=", k)
			_ = binary.Write(h, binary.LittleEndian, math.Float64bits(r.Metrics[k])) // a hash never fails a write
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sameDigest is the gate on output stability: every iteration of a run,
// each in its own process, must produce the first one's bytes.
func sameDigest(first, got string) error {
	if first != got {
		return fmt.Errorf("output digest %.12s differs from the first iteration's %.12s", got, first)
	}
	return nil
}

// resultMetric finds one headline number in a RunAll result set.
func resultMetric(results []*core.Result, id, key string) (float64, error) {
	for _, r := range results {
		if r.ID == id {
			if v, ok := r.Metrics[key]; ok {
				return v, nil
			}
		}
	}
	return 0, fmt.Errorf("no %s.%s among the results", id, key)
}

// censusShape gates the census on its calibration: the campaign's mean
// daily peer count is within 5% of the population the network was built
// for.
func censusShape(results []*core.Result, target int) error {
	v, err := resultMetric(results, "figure-05", "mean_daily_peers")
	if err != nil {
		return err
	}
	if math.Abs(v-float64(target)) > 0.05*float64(target) {
		return fmt.Errorf("figure-05.mean_daily_peers %.0f is not within 5%% of %d", v, target)
	}
	return nil
}

// blockingShape gates the blocking analysis on the paper's headline: ten
// routers with a five-day window block at least 95% of a victim's known
// addresses.
func blockingShape(results []*core.Result, _ int) error {
	v, err := resultMetric(results, "figure-13", "rate_10routers_5day")
	if err != nil {
		return err
	}
	if v < 95 {
		return fmt.Errorf("figure-13.rate_10routers_5day %.1f is below the paper's 95", v)
	}
	return nil
}

// allocMB is the process's cumulative allocation so far.
func allocMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc) / 1e6
}

// censusLayers times sim and measure one public call at a time on a
// fresh network. Campaign.Run's merge and fold are private, so the pass
// runs the campaign at Workers 1, times capture on its own with the same
// fleet, and reports the remainder as the derived merge_fold_s.
func censusLayers(b *batchWorkload, rec *recorder) (sample, error) {
	ctx := context.Background()
	root := rec.root
	if err := rec.do(root, "sim.New", func(int) error { return b.setup() }); err != nil {
		return nil, err
	}
	fleet := measure.DefaultObserverFleet(core.DefaultOptions().MainFleetSize)

	// Capture alone: 20 cold observers × 45 days of ObserveDay, then
	// CollectDay over the now-warm memos — pure RouterInfo materialisation.
	observers := make([]*sim.Observer, len(fleet))
	for i, cfg := range fleet {
		observers[i] = b.net.NewObserver(cfg)
	}
	records := 0
	var collectMB float64
	err := rec.do(root, "capture", func(id int) error {
		for _, o := range observers {
			for d := 0; d < days; d++ {
				_ = rec.do(id, "sim.ObserveDay", func(int) error { o.ObserveDay(d); return nil })
			}
		}
		a0 := allocMB()
		for _, o := range observers {
			for d := 0; d < days; d++ {
				_ = rec.do(id, "sim.CollectDay", func(int) error { records += len(o.CollectDay(d)); return nil })
			}
		}
		collectMB = allocMB() - a0
		return nil
	})
	if err != nil {
		return nil, err
	}

	campaign := func(span string, workers int) (*measure.Campaign, *measure.Dataset, error) {
		c, err := measure.NewCampaign(b.net, measure.CampaignConfig{Observers: fleet, EndDay: days, Workers: workers})
		if err != nil {
			return nil, nil, err
		}
		var ds *measure.Dataset
		err = rec.do(root, span, func(int) error {
			ds, err = c.Run()
			return err
		})
		return c, ds, err
	}
	if _, _, err := campaign("measure.Campaign.Run/serial", 1); err != nil {
		return nil, err
	}
	auto, ds, err := campaign("measure.Campaign.Run/auto", 0)
	if err != nil {
		return nil, err
	}
	kept := 0
	for _, d := range ds.Days {
		kept += d.Peers
	}

	// The Dataset methods behind Figures 5–12 and Table 1, one span each.
	err = rec.do(root, "analyses", func(id int) error {
		for _, a := range []struct {
			name string
			fn   func()
		}{
			{"PopulationTimeline", func() { ds.PopulationTimeline() }},
			{"UnknownIPTimeline", func() { ds.UnknownIPTimeline() }},
			{"ChurnFigure", func() { ds.ChurnFigure() }},
			{"SurvivalCurve", func() { ds.SurvivalCurve() }},
			{"IPChurnHistogram", func() { ds.IPChurnHistogram(16) }},
			{"IPCountShares", func() { ds.IPCountShares() }},
			{"CapacityFigure", func() { ds.CapacityFigure() }},
			{"Table1", func() { ds.Table1() }},
			{"EstimateFloodfillPopulation", func() { ds.EstimateFloodfillPopulation() }},
			{"CountryCounter", func() { ds.CountryCounter() }},
			{"CensoredPeers", func() { ds.CensoredPeers(b.net.GeoDB()) }},
			{"ASCounter", func() { ds.ASCounter() }},
			{"ASChurnHistogram", func() { ds.ASChurnHistogram(10) }},
			{"ASCountShares", func() { ds.ASCountShares() }},
		} {
			_ = rec.do(id, "measure.Dataset."+a.name, func(int) error { a.fn(); return nil })
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// RunAll with the main dataset already cached: what is left is the
	// observation-sweep figures, the ablations and rendering.
	study := b.study()
	if err := rec.do(root, "core.Study.MainDataset", func(int) error { _, err := study.MainDataset(); return err }); err != nil {
		return nil, err
	}
	renderBytes := 0
	err = rec.do(root, "core.RunAll/cached", func(int) error {
		results, err := study.RunAll(ctx, b.ids...)
		for _, r := range results {
			renderBytes += len(r.Text)
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	serial, observe, collect := rec.seconds("measure.Campaign.Run/serial"), rec.seconds("sim.ObserveDay"), rec.seconds("sim.CollectDay")
	mem := auto.MemStats()
	return sample{
		"sim.build_s":               rec.seconds("sim.New"),
		"sim.observe_s":             observe,
		"sim.observe_calls":         float64(rec.count("sim.ObserveDay")),
		"sim.collect_s":             collect,
		"sim.collect_alloc_mb":      collectMB,
		"sim.records":               float64(records),
		"measure.campaign_serial_s": serial,
		"measure.campaign_auto_s":   rec.seconds("measure.Campaign.Run/auto"),
		"measure.campaign_speedup":  serial / rec.seconds("measure.Campaign.Run/auto"),
		"measure.merge_fold_s":      serial - observe - collect,
		"measure.records_kept":      float64(kept),
		"measure.keep_ratio":        float64(kept) / float64(records),
		"measure.peak_units":        float64(mem.PeakRetainedUnits),
		"measure.units_evicted":     float64(mem.UnitsEvicted),
		"measure.analyses_s":        rec.seconds("analyses"),
		"core.render_s":             rec.seconds("core.RunAll/cached"),
		"core.render_bytes":         float64(renderBytes),
	}, nil
}

// counterTotals sums every series of the engine counter families the
// old BENCH_censor.json ledger carried, by family name without the
// i2p_ prefix and _total suffix.
func counterTotals(reg *obs.Registry) (map[string]float64, error) {
	fams, err := promtest.Parse(reg.RenderText())
	if err != nil {
		return nil, err
	}
	totals := map[string]float64{}
	for _, f := range fams {
		name, ok := strings.CutPrefix(f.Name, "i2p_")
		if f.Type != "counter" || !ok {
			continue
		}
		for _, smp := range f.Samples {
			totals[strings.TrimSuffix(name, "_total")] += smp.Value
		}
	}
	return totals, nil
}

// blockingLayers times censor and distrib on a fresh network: the index
// build, Figure 13 and the three sweep engines at Workers 1 and 0 on the
// grids of their package benchmarks, then each blocking experiment on
// its own, serially.
func blockingLayers(b *batchWorkload, rec *recorder) (sample, error) {
	ctx := context.Background()
	root := rec.root
	if err := b.setup(); err != nil {
		return nil, err
	}
	var ix *censor.AddrIndex
	_ = rec.do(root, "censor.NewAddrIndex", func(int) error { ix = censor.NewAddrIndex(b.net); return nil })
	// Everything below shares the network's cached index, as every
	// experiment after the first does in a CLI run.
	censor.IndexFor(b.net)
	reg := obs.NewRegistry()

	// Figure 13 at Workers 1, then at Workers 0 with the obs registry
	// counting, which is the one place the benchmark reads the program's
	// own counters: tasks, steals, row plans, memo hits, counter pool.
	for _, w := range []struct {
		span    string
		workers int
	}{{"censor.Figure13/serial", 1}, {"censor.Figure13/auto", 0}} {
		if w.workers == 0 {
			obs.Enable(reg)
		}
		err := rec.do(root, w.span, func(int) error {
			_, err := censor.Figure13Context(ctx, b.net, 20, []int{1, 5, 10, 20, 30}, days-5, 700, w.workers)
			return err
		})
		obs.Enable(nil)
		if err != nil {
			return nil, err
		}
	}

	grid := make([]int, 30)
	for i := range grid {
		grid[i] = 5 + i
	}
	sw, err := censor.NewSweep(b.net, censor.SweepConfig{
		Fleets: []int{2, 4, 8, 16}, Windows: []int{1, 5, 10, 20}, Days: grid, SeedBase: 700,
	})
	if err != nil {
		return nil, err
	}
	if err := rec.do(root, "censor.Sweep.Capture", func(int) error { return sw.Capture(ctx) }); err != nil {
		return nil, err
	}
	// The first Run draws every router-day's observed-ID slice; the
	// rolling-against-scratch pair is timed over warm memos, as
	// BenchmarkSweepRolling* times it.
	for _, span := range []string{"censor.Sweep.Run/cold", "censor.Sweep.Run"} {
		if err := rec.do(root, span, func(int) error { _, err := sw.Run(ctx); return err }); err != nil {
			return nil, err
		}
	}
	_ = rec.do(root, "censor.Sweep.BlockingRate/scratch", func(int) error {
		for _, cell := range sw.Cells() {
			sw.BlockingRate(cell)
		}
		return nil
	})

	for _, w := range []struct {
		suffix  string
		workers int
	}{{"serial", 1}, {"auto", 0}} {
		err := rec.do(root, "distrib.Sweep.Run/"+w.suffix, func(int) error {
			s, err := distrib.NewSweep(b.net, distrib.SweepConfig{
				Strategy: censor.BridgeCombined, Distributors: distrib.DefaultDistributors(),
				Enumerators: distrib.DefaultEnumerators(), Days: []int{10, 18, 26}, HorizonDays: 10,
				Users: 60, MaxResources: 160, SeedBase: b.p.seed, Workers: w.workers,
			})
			if err == nil {
				_, err = s.Run(ctx)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		err = rec.do(root, "distrib.TrustSweep.Run/"+w.suffix, func(int) error {
			s, err := distrib.NewTrustSweep(b.net, distrib.TrustSweepConfig{
				Strategy: censor.BridgeCombined,
				Distributors: []*distrib.TrustSocial{
					distrib.NewTrustSocial(distrib.TrustSocialConfig{Name: "trust-a", Graph: distrib.TrustGraphConfig{Users: 240, Seed: 1}}),
					distrib.NewTrustSocial(distrib.TrustSocialConfig{Name: "trust-b", Graph: distrib.TrustGraphConfig{Users: 240, Seed: 2}, BanThreshold: 1}),
					distrib.NewTrustSocial(distrib.TrustSocialConfig{Name: "trust-c", Graph: distrib.TrustGraphConfig{Users: 240, Seed: 3}, PromoteDays: 3}),
				},
				Enumerators: []distrib.Enumerator{
					{Kind: distrib.Crawler, Budget: 200},
					{Kind: distrib.Sybil, Budget: 300},
					{Kind: distrib.Insider, InsiderFrac: 0.15},
				},
				Day: 10, HorizonDays: 15, MaxResources: 160, SeedBase: b.p.seed, Workers: w.workers,
			})
			if err == nil {
				_, err = s.Run(ctx)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	}

	out := sample{
		"censor.index_build_s":        rec.seconds("censor.NewAddrIndex"),
		"censor.index_addrs":          float64(ix.NumAddrs()),
		"censor.figure13_serial_s":    rec.seconds("censor.Figure13/serial"),
		"censor.figure13_auto_s":      rec.seconds("censor.Figure13/auto"),
		"censor.figure13_speedup":     rec.seconds("censor.Figure13/serial") / rec.seconds("censor.Figure13/auto"),
		"censor.sweep_capture_s":      rec.seconds("censor.Sweep.Capture"),
		"censor.sweep_rolling_s":      rec.seconds("censor.Sweep.Run"),
		"censor.sweep_scratch_s":      rec.seconds("censor.Sweep.BlockingRate/scratch"),
		"censor.rolling_speedup":      rec.seconds("censor.Sweep.BlockingRate/scratch") / rec.seconds("censor.Sweep.Run"),
		"distrib.sweep_serial_s":      rec.seconds("distrib.Sweep.Run/serial"),
		"distrib.sweep_auto_s":        rec.seconds("distrib.Sweep.Run/auto"),
		"distrib.trustsweep_serial_s": rec.seconds("distrib.TrustSweep.Run/serial"),
		"distrib.trustsweep_auto_s":   rec.seconds("distrib.TrustSweep.Run/auto"),
	}

	counters, err := counterTotals(reg)
	if err != nil {
		return nil, err
	}
	for family, total := range counters {
		out["obs."+family] = total
	}

	// One experiment at a time on one study, so each span is that
	// experiment's own cost (later ones find the memos earlier ones
	// filled, as they do inside RunAll).
	study := b.study()
	err = rec.do(root, "experiments", func(id int) error {
		for _, exp := range b.ids {
			span := "core.RunExperiment/" + exp
			if err := rec.do(id, span, func(int) error { _, err := study.RunExperiment(exp); return err }); err != nil {
				return err
			}
			out["core.exp."+exp+"_s"] = rec.seconds(span)
		}
		return nil
	})
	return out, err
}
