// Command obssnap runs one small instrumented adversary sweep and
// prints scheduler/cache counter totals as "key value" lines:
//
//	engine_tasks_total 602
//	engine_steals_total 3
//	cache_hits_total 120
//	...
//
// scripts/bench.sh splices these into the BENCH_*.json trajectories so
// the steal rate and cache hit traffic are tracked alongside ns/op —
// the counters explain a perf move (a splits spike, a cold cache) that
// the timing numbers alone only show. Worker width follows GOMAXPROCS,
// matching how the bench jobs pin cores.
//
// With -campaign the tool instead runs one measurement campaign and
// prints its memory accounting: the measure_* retained-unit gauges and
// (always zero) eviction counter from the obs registry, the campaign grid
// size, and the process's peak RSS. scripts/stream_smoke.sh asserts the
// bounded-memory contract against these lines, and bench.sh splices
// them into BENCH_campaign.json.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sort"
	"strings"
	"syscall"

	"github.com/i2pstudy/i2pstudy/internal/core"
	"github.com/i2pstudy/i2pstudy/internal/measure"
	"github.com/i2pstudy/i2pstudy/internal/obs"
	"github.com/i2pstudy/i2pstudy/internal/obs/promtest"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("obssnap: ")

	scale := flag.Float64("scale", 0.02, "network scale for the snapshot sweep")
	seed := flag.Uint64("seed", 2018, "simulation seed")
	days := flag.Int("days", 40, "study horizon in days")
	experiment := flag.String("experiment", "figure-13", "experiment driving the counters")
	campaign := flag.Bool("campaign", false, "snapshot the campaign's memory accounting instead of sweep counters")
	workers := flag.Int("workers", 4, "campaign engine width for -campaign")
	checkpointDir := flag.String("checkpoint-dir", "", "campaign checkpoint directory for -campaign")
	flag.Parse()

	reg := obs.NewRegistry()
	obs.Enable(reg)

	if *campaign {
		runCampaign(reg, *scale, *seed, *days, *workers, *checkpointDir)
		return
	}

	opts := core.DefaultOptions()
	opts.Seed = *seed
	opts.Days = *days
	opts.TargetDailyPeers = int(*scale * 30500)
	study, err := core.NewStudy(opts)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := study.RunAll(context.Background(), *experiment); err != nil {
		log.Fatal(err)
	}

	fams, err := promtest.Parse(reg.RenderText())
	if err != nil {
		log.Fatal(err)
	}
	var lines []string
	for _, f := range fams {
		// Only the counter totals go into the trajectories; keys drop
		// the i2p_ prefix to read as plain JSON field names.
		if f.Type != "counter" || !strings.HasPrefix(f.Name, "i2p_") {
			continue
		}
		var total float64
		for _, s := range f.Samples {
			total += s.Value
		}
		lines = append(lines, fmt.Sprintf("%s %d", strings.TrimPrefix(f.Name, "i2p_"), int64(total)))
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
}

// runCampaign runs one campaign and prints its memory
// accounting as "key value" lines. The gauge/counter values come from
// the obs registry — the same families an operator would scrape — so
// the smoke script exercises the wiring end to end; the grid size and
// peak RSS frame them.
func runCampaign(reg *obs.Registry, scale float64, seed uint64, days, workers int, checkpointDir string) {
	n, err := core.NewStudy(core.Options{
		Seed:             seed,
		Days:             days,
		TargetDailyPeers: int(scale * 30500),
		MainFleetSize:    8,
	})
	if err != nil {
		log.Fatal(err)
	}
	c, err := measure.NewCampaign(n.Net, measure.CampaignConfig{
		Observers:     measure.DefaultObserverFleet(8),
		StartDay:      0,
		EndDay:        days,
		Workers:       workers,
		CheckpointDir: checkpointDir,
	})
	if err != nil {
		log.Fatal(err)
	}
	ds, err := c.RunContext(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	if ds.TotalPeers() == 0 {
		log.Fatal("campaign observed nothing")
	}

	fams, err := promtest.Parse(reg.RenderText())
	if err != nil {
		log.Fatal(err)
	}
	var lines []string
	for _, f := range fams {
		if !strings.HasPrefix(f.Name, "i2p_measure_") {
			continue
		}
		var total float64
		for _, s := range f.Samples {
			total += s.Value
		}
		lines = append(lines, fmt.Sprintf("%s %d", strings.TrimPrefix(f.Name, "i2p_"), int64(total)))
	}
	lines = append(lines, fmt.Sprintf("campaign_days %d", days))
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		// Linux reports ru_maxrss in KB.
		lines = append(lines, fmt.Sprintf("campaign_peak_rss_kb %d", ru.Maxrss))
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
}
