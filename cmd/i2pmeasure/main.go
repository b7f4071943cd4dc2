// Command i2pmeasure runs the paper's measurement experiments (Figures
// 2–12, Table 1, the floodfill population estimate) against a synthetic
// network and prints the regenerated artifacts.
//
// Usage:
//
//	i2pmeasure -list
//	i2pmeasure [-scale 0.1] [-seed 2018] [-workers 0] [-experiment figure-05] [-snapshot-dir DIR]
//	i2pmeasure -cpuprofile cpu.out -memprofile mem.out -experiment figure-05
//	i2pmeasure -trace trace.json -experiment figure-05   # Perfetto-loadable spans
//
// Without -experiment, every measurement experiment runs in order
// (comma-separated IDs select a subset). Experiments and the campaign
// engine fan out across -workers goroutines (default: one per CPU);
// results are identical for any worker count. Ctrl-C cancels the run
// cleanly — snapshot day directories are written atomically, so an
// interrupted -snapshot-dir never holds a partial day.
//
// With -checkpoint-dir, finished experiments (and the -snapshot-dir
// campaign's finished days) are spilled to disk; rerunning with -resume
// loads finished units instead of recomputing them and produces
// byte-identical output. A directory holding a previous run's manifest
// is refused without -resume, and state from a different configuration
// is refused with a mismatch error. -inject point:N:mode arms a
// deterministic fault for crash drills (see internal/faults).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/i2pstudy/i2pstudy/internal/checkpoint"
	"github.com/i2pstudy/i2pstudy/internal/core"
	"github.com/i2pstudy/i2pstudy/internal/faults"
	"github.com/i2pstudy/i2pstudy/internal/measure"
	"github.com/i2pstudy/i2pstudy/internal/obs"
	"github.com/i2pstudy/i2pstudy/internal/prof"
)

// measurementIDs are the Section 5 artifacts plus the ablation studies
// this tool owns, derived from the registry's category tags; censorship
// experiments (core.CategoryCensorship) live in cmd/i2pcensor.
func measurementIDs() []string {
	return append(core.ExperimentIDs(core.CategoryPopulation),
		core.ExperimentIDs(core.CategoryAblation)...)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("i2pmeasure: ")

	scale := flag.Float64("scale", 0.1, "network scale relative to the paper's 30.5K daily peers")
	seed := flag.Uint64("seed", 2018, "simulation seed")
	days := flag.Int("days", 45, "study horizon in days (>= 40)")
	workers := flag.Int("workers", 0, "engine concurrency (0 = one worker per CPU, 1 = serial)")
	experiment := flag.String("experiment", "", "run specific experiments (comma-separated IDs)")
	list := flag.Bool("list", false, "list available experiments and exit")
	checkpointDir := flag.String("checkpoint-dir", "", "spill finished experiments here so an interrupted run can resume")
	resume := flag.Bool("resume", false, "continue from an existing -checkpoint-dir instead of refusing it")
	inject := flag.String("inject", "", "arm a deterministic fault: point:N:mode (mode = error|panic|exit)")
	snapshotDir := flag.String("snapshot-dir", "", "persist daily netDb snapshots (routerInfo-*.dat) under this directory")
	csvDir := flag.String("csv-dir", "", "write each figure's data series as CSV under this directory")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	blockprofile := flag.String("blockprofile", "", "write a blocking-contention profile to this file on exit")
	mutexprofile := flag.String("mutexprofile", "", "write a mutex-contention profile to this file on exit")
	traceFile := flag.String("trace", "", "write a Chrome trace-event JSON file of engine spans (open in Perfetto)")
	flag.Parse()

	if *list {
		for _, e := range core.Experiments() {
			fmt.Printf("%-22s %-11s %s\n", e.ID, e.Category, e.Title)
		}
		return
	}

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
	fmt.Printf("network: %d daily peers (scale %.2f), %d days, seed %d, %d workers\n\n",
		opts.TargetDailyPeers, *scale, opts.Days, opts.Seed, study.Workers())

	if *snapshotDir != "" {
		// The snapshot campaign checkpoints under its own subdirectory:
		// it is a different engine with its own manifest, which cannot
		// share the experiment store's directory.
		campaignCkpt := ""
		if *checkpointDir != "" {
			campaignCkpt = filepath.Join(*checkpointDir, "campaign")
		}
		if err := writeSnapshots(ctx, study, *snapshotDir, campaignCkpt); err != nil {
			fatal(err)
		}
	}

	ids := measurementIDs()
	if *experiment != "" {
		ids = strings.Split(*experiment, ",")
	}
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	start := time.Now()
	results, err := study.RunAll(ctx, sorted...)
	if err != nil {
		fatal(err)
	}
	for _, res := range results {
		fmt.Printf("=== %s: %s\n", res.ID, res.Title)
		fmt.Printf("paper: %s\n\n", paperNote(res.ID))
		fmt.Println(res.Text)
		printMetrics(res.Metrics)
		fmt.Println()
		if *csvDir != "" && res.Figure != nil {
			if err := writeCSV(*csvDir, res); err != nil {
				log.Fatalf("%s: csv: %v", res.ID, err)
			}
		}
	}
	fmt.Printf("completed %d experiments in %s\n", len(sorted), time.Since(start).Round(time.Millisecond))
}

// fatal reports context cancellation as a clean interrupt, everything else
// as a fatal error.
func fatal(err error) {
	if errors.Is(err, context.Canceled) {
		log.Fatal("interrupted")
	}
	log.Fatal(err)
}

// writeSnapshots runs a short 3-observer campaign with disk snapshots to
// demonstrate the netDb-directory watching workflow of Section 4.3.
func writeSnapshots(ctx context.Context, study *core.Study, dir, checkpointDir string) error {
	c, err := measure.NewCampaign(study.Net, measure.CampaignConfig{
		Observers:     measure.DefaultObserverFleet(3),
		StartDay:      0,
		EndDay:        3,
		SnapshotDir:   dir,
		Workers:       study.Workers(),
		CheckpointDir: checkpointDir,
	})
	if err != nil {
		return err
	}
	if _, err := c.RunContext(ctx); err != nil {
		return err
	}
	fmt.Printf("wrote netDb snapshots for days 0-2 under %s\n\n", dir)
	return nil
}

// writeCSV exports one experiment's figure series to <dir>/<id>.csv.
func writeCSV(dir string, res *core.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, res.ID+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := res.Figure.WriteCSV(f); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n\n", f.Name())
	return nil
}

func paperNote(id string) string {
	if e, ok := core.Lookup(id); ok {
		return e.Paper
	}
	return ""
}

func printMetrics(m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-28s %.3f\n", k, m[k])
	}
	fmt.Print(b.String())
}
