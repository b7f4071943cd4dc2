// Command i2pcensor runs the paper's censorship-resistance experiments:
// the probabilistic address-based blocking model (Figure 13), the eepsite
// usability evaluation under null-routing (Figure 14), reseed blocking and
// manual reseeding (Section 6.1), the bridge strategies of Section 7.1,
// the DPI fingerprinting study of Section 2.2.2, and the
// bridge-distribution pipeline (rdsys-style distributors vs censor
// enumeration, internal/distrib) — including the Salmon-style
// trust-graph distributor (trust-distribution).
//
// Usage:
//
//	i2pcensor [-scale 0.1] [-seed 2018] [-experiment figure-13]
//	i2pcensor -experiment figure-13,figure-14          # comma-separated subset
//	i2pcensor -checkpoint-dir ckpt                     # spill finished experiments
//	i2pcensor -checkpoint-dir ckpt -resume             # continue an interrupted run
//	i2pcensor -cpuprofile cpu.out -memprofile mem.out -experiment figure-13
//	i2pcensor -trace trace.json -experiment figure-13   # Perfetto-loadable spans
//
// With -checkpoint-dir, every finished experiment is spilled to the
// directory; rerunning with -resume loads finished units instead of
// recomputing them and produces byte-identical output. A directory
// holding a previous run's manifest is refused without -resume, and
// state from a different configuration (seed, scale, days) is refused
// with a mismatch error. -inject point:N:mode arms a deterministic
// fault for crash drills (see internal/faults).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"github.com/i2pstudy/i2pstudy/internal/checkpoint"
	"github.com/i2pstudy/i2pstudy/internal/core"
	"github.com/i2pstudy/i2pstudy/internal/faults"
	"github.com/i2pstudy/i2pstudy/internal/obs"
	"github.com/i2pstudy/i2pstudy/internal/prof"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("i2pcensor: ")

	scale := flag.Float64("scale", 0.1, "network scale relative to the paper's 30.5K daily peers")
	seed := flag.Uint64("seed", 2018, "simulation seed")
	days := flag.Int("days", 45, "study horizon in days (>= 40)")
	workers := flag.Int("workers", 0, "engine concurrency (0 = one worker per CPU, 1 = serial)")
	experiment := flag.String("experiment", "", "run specific experiments (comma-separated IDs)")
	checkpointDir := flag.String("checkpoint-dir", "", "spill finished experiments here so an interrupted run can resume")
	resume := flag.Bool("resume", false, "continue from an existing -checkpoint-dir instead of refusing it")
	inject := flag.String("inject", "", "arm a deterministic fault: point:N:mode (mode = error|panic|exit)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	blockprofile := flag.String("blockprofile", "", "write a blocking-contention profile to this file on exit")
	mutexprofile := flag.String("mutexprofile", "", "write a mutex-contention profile to this file on exit")
	traceFile := flag.String("trace", "", "write a Chrome trace-event JSON file of engine spans (open in Perfetto)")
	flag.Parse()

	if *inject != "" {
		inj, err := faults.Parse(*inject)
		if err != nil {
			log.Fatal(err)
		}
		faults.Enable(faults.New(inj))
	}
	if *checkpointDir != "" && !*resume && checkpoint.Exists(*checkpointDir) {
		log.Fatalf("%s holds a previous run's checkpoint; pass -resume to continue it (or point -checkpoint-dir elsewhere)", *checkpointDir)
	}

	stopProf, err := prof.StartOptions(prof.Options{
		CPUProfile:   *cpuprofile,
		MemProfile:   *memprofile,
		BlockProfile: *blockprofile,
		MutexProfile: *mutexprofile,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			log.Print(err)
		}
	}()

	closeTrace, err := obs.TraceToFile(*traceFile)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := closeTrace(); err != nil {
			log.Print(err)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := core.DefaultOptions()
	opts.Seed = *seed
	opts.Days = *days
	opts.TargetDailyPeers = int(*scale * 30500)
	opts.Workers = *workers
	opts.CheckpointDir = *checkpointDir
	study, err := core.NewStudy(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: %d daily peers (scale %.2f), %d days, seed %d\n\n",
		opts.TargetDailyPeers, *scale, opts.Days, opts.Seed)

	// The experiment set is derived from the registry's category tags, so
	// newly registered censorship and distribution experiments appear here
	// automatically.
	ids := append(core.ExperimentIDs(core.CategoryCensorship),
		core.ExperimentIDs(core.CategoryDistribution)...)
	if *experiment != "" {
		ids = strings.Split(*experiment, ",")
	}
	results, err := study.RunAll(ctx, ids...)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			log.Fatal("interrupted")
		}
		log.Fatal(err)
	}
	for _, res := range results {
		fmt.Printf("=== %s: %s\n", res.ID, res.Title)
		if e, ok := core.Lookup(res.ID); ok {
			fmt.Printf("paper: %s\n\n", e.Paper)
		}
		fmt.Println(res.Text)
		keys := make([]string, 0, len(res.Metrics))
		for k := range res.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %-28s %.3f\n", k, res.Metrics[k])
		}
		fmt.Println()
	}
}
