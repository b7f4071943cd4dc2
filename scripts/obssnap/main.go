// Command obssnap runs one measurement campaign with the obs registry
// enabled and prints its memory accounting as "key value" lines: the
// measure_* retained-unit gauges from the registry — the same families
// an operator would scrape — the campaign grid size, and the process's
// peak RSS. scripts/stream_smoke.sh asserts the bounded-memory contract
// against these lines.
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

	scale := flag.Float64("scale", 0.02, "network scale")
	seed := flag.Uint64("seed", 2018, "simulation seed")
	days := flag.Int("days", 40, "study horizon in days")
	flag.Bool("campaign", true, "accepted for scripts/stream_smoke.sh; the campaign is the only mode")
	workers := flag.Int("workers", 4, "campaign engine width")
	checkpointDir := flag.String("checkpoint-dir", "", "campaign checkpoint directory")
	flag.Parse()

	reg := obs.NewRegistry()
	obs.Enable(reg)

	n, err := core.NewStudy(core.Options{
		Seed:             *seed,
		Days:             *days,
		TargetDailyPeers: int(*scale * 30500),
		MainFleetSize:    8,
	})
	if err != nil {
		log.Fatal(err)
	}
	c, err := measure.NewCampaign(n.Net, measure.CampaignConfig{
		Observers:     measure.DefaultObserverFleet(8),
		StartDay:      0,
		EndDay:        *days,
		Workers:       *workers,
		CheckpointDir: *checkpointDir,
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
	lines = append(lines, fmt.Sprintf("campaign_days %d", *days))
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
