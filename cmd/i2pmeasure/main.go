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
// stdout is byte-identical for any worker count (the worker count and
// the run time go to stderr). Ctrl-C cancels the run
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
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/i2pstudy/i2pstudy/internal/checkpoint"
	"github.com/i2pstudy/i2pstudy/internal/cli"
	"github.com/i2pstudy/i2pstudy/internal/core"
	"github.com/i2pstudy/i2pstudy/internal/measure"
)

// measurementIDs are the Section 5 artifacts plus the ablation studies
// this tool owns, derived from the registry's category tags; censorship
// experiments (core.CategoryCensorship) live in cmd/i2pcensor.
func measurementIDs() []string {
	return append(core.ExperimentIDs(core.CategoryPopulation),
		core.ExperimentIDs(core.CategoryAblation)...)
}

func main() { cli.Main("i2pmeasure", run) }

func run() error {
	f := cli.Register()
	list := flag.Bool("list", false, "list available experiments and exit")
	snapshotDir := flag.String("snapshot-dir", "", "persist daily netDb snapshots (routerInfo-*.dat) under this directory")
	csvDir := flag.String("csv-dir", "", "write each figure's data series as CSV under this directory")
	flag.Parse()

	if *list {
		for _, e := range core.Experiments() {
			fmt.Printf("%-22s %-11s %s\n", e.ID, e.Category, e.Title)
		}
		return nil
	}

	ids, err := f.IDs(measurementIDs())
	if err != nil {
		return err
	}
	ctx, stop, err := f.Start()
	if err != nil {
		return err
	}
	defer stop()

	study, err := f.NewStudy()
	if err != nil {
		return err
	}
	// stdout is the artifact, byte-identical at any -workers; the width
	// and the run time go to stderr.
	fmt.Fprintf(os.Stderr, "%d workers\n", study.Workers())
	fmt.Printf("network: %d daily peers (scale %.2f), %d days, seed %d\n\n",
		study.Opts.TargetDailyPeers, f.Scale, study.Opts.Days, study.Opts.Seed)

	if *snapshotDir != "" {
		// The snapshot campaign checkpoints under its own subdirectory:
		// it is a different engine with its own manifest, which cannot
		// share the experiment store's directory.
		campaignCkpt := ""
		if f.CheckpointDir != "" {
			campaignCkpt = filepath.Join(f.CheckpointDir, "campaign")
		}
		if err := writeSnapshots(ctx, study, *snapshotDir, campaignCkpt); err != nil {
			return err
		}
	}

	sort.Strings(ids)
	start := time.Now()
	results, err := study.RunAll(ctx, ids...)
	if err != nil {
		return err
	}
	for _, res := range results {
		if err := cli.WriteResult(os.Stdout, res); err != nil {
			return err
		}
		if *csvDir != "" && res.Figure != nil {
			if err := writeCSV(*csvDir, res); err != nil {
				return fmt.Errorf("%s: csv: %w", res.ID, err)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "completed %d experiments in %s\n", len(ids), time.Since(start).Round(time.Millisecond))
	return nil
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

// writeCSV exports one experiment's figure series to <dir>/<id>.csv,
// staged and renamed like every other artifact.
func writeCSV(dir string, res *core.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := res.Figure.WriteCSV(&buf); err != nil {
		return err
	}
	path := filepath.Join(dir, res.ID+".csv")
	if err := checkpoint.WriteFileAtomic(path, buf.Bytes()); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n\n", path)
	return nil
}
