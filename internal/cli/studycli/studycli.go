// Package studycli is the study binaries' whole run. cmd/i2pmeasure and
// cmd/i2pcensor each call Run with their experiment categories: it
// declares and parses the flag block, sets up what the flags ask for
// (fault injection, the existing-checkpoint refusal, profiles, the
// trace file), builds the study, runs the experiments and writes their
// results, CSV series and netDb snapshots. The lifecycle around it — the
// exit site and the signal context — is internal/cli, which the tools
// that run no study use alone.
package studycli

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/i2pstudy/i2pstudy/internal/checkpoint"
	"github.com/i2pstudy/i2pstudy/internal/cli"
	"github.com/i2pstudy/i2pstudy/internal/core"
	"github.com/i2pstudy/i2pstudy/internal/faults"
	"github.com/i2pstudy/i2pstudy/internal/measure"
	"github.com/i2pstudy/i2pstudy/internal/obs"
	"github.com/i2pstudy/i2pstudy/internal/prof"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// flags holds the parsed values of the flag block.
type flags struct {
	scale      float64
	seed       uint64
	days       int
	workers    int
	experiment string

	checkpointDir string
	resume        bool
	inject        string
	prof          prof.Options
	trace         string

	list        bool
	csvDir      string
	snapshotDir string
}

// register declares the flag block on the default flag set.
func register() *flags {
	f := &flags{}
	flag.Float64Var(&f.scale, "scale", 0.1, "network scale relative to the paper's 30.5K daily peers")
	flag.Uint64Var(&f.seed, "seed", 2018, "simulation seed")
	flag.IntVar(&f.days, "days", 45, "study horizon in days (>= 40)")
	flag.IntVar(&f.workers, "workers", 0, "engine concurrency (0 = one worker per CPU, 1 = serial)")
	flag.StringVar(&f.experiment, "experiment", "", "run specific experiments (comma-separated IDs)")
	flag.StringVar(&f.checkpointDir, "checkpoint-dir", "", "spill finished experiments here so an interrupted run can resume")
	flag.BoolVar(&f.resume, "resume", false, "continue from an existing -checkpoint-dir instead of refusing it")
	flag.StringVar(&f.inject, "inject", "", "arm a deterministic fault: point:N:mode (mode = error|panic|exit)")
	flag.StringVar(&f.prof.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&f.prof.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	flag.StringVar(&f.prof.BlockProfile, "blockprofile", "", "write a blocking-contention profile to this file on exit")
	flag.StringVar(&f.prof.MutexProfile, "mutexprofile", "", "write a mutex-contention profile to this file on exit")
	flag.StringVar(&f.trace, "trace", "", "write a Chrome trace-event JSON file of engine spans (open in Perfetto)")
	flag.BoolVar(&f.list, "list", false, "list available experiments and exit")
	flag.StringVar(&f.csvDir, "csv-dir", "", "write each figure's data series as CSV under this directory")
	flag.StringVar(&f.snapshotDir, "snapshot-dir", "", "persist daily netDb snapshots (routerInfo-*.dat) under this directory")
	return f
}

// Run parses the command line and runs the study it describes: the
// experiments -experiment names, in the order it names them, or else
// every experiment of categories, each category's IDs sorted and the
// categories in the order given. stdout is the artifact, byte-identical
// at any -workers; the width and the run time go to stderr. -list
// prints every registered experiment, whatever the categories.
func Run(categories ...string) error {
	f := register()
	flag.Parse()

	if f.list {
		for _, e := range core.Experiments() {
			fmt.Printf("%-22s %-11s %s\n", e.ID, e.Category, e.Title)
		}
		return nil
	}
	var all []string
	for _, c := range categories {
		all = append(all, core.ExperimentIDs(c)...)
	}
	ids, err := f.ids(all)
	if err != nil {
		return err
	}
	peers, err := sim.ScaledDailyPeers(f.scale)
	if err != nil {
		return err
	}
	stop, err := f.start()
	if err != nil {
		return err
	}
	defer stop()
	ctx, cancel := cli.SignalContext()
	defer cancel()

	opts := core.DefaultOptions()
	opts.Seed = f.seed
	opts.Days = f.days
	opts.TargetDailyPeers = peers
	opts.Workers = f.workers
	opts.CheckpointDir = f.checkpointDir
	study, err := core.NewStudy(opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%d workers\n", study.Workers())
	fmt.Printf("network: %d daily peers (scale %.2f), %d days, seed %d\n\n",
		study.Opts.TargetDailyPeers, f.scale, study.Opts.Days, study.Opts.Seed)

	if f.snapshotDir != "" {
		if err := writeSnapshots(ctx, study, f.snapshotDir); err != nil {
			return err
		}
	}

	start := time.Now()
	results, err := study.RunAll(ctx, ids...)
	if err != nil {
		return err
	}
	for _, res := range results {
		if err := WriteResult(os.Stdout, res); err != nil {
			return err
		}
		if f.csvDir != "" && res.Figure != nil {
			if err := writeCSV(f.csvDir, res); err != nil {
				return fmt.Errorf("%s: csv: %w", res.ID, err)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "completed %d experiments in %s\n", len(ids), time.Since(start).Round(time.Millisecond))
	return nil
}

// start arms the injected fault (cli.Main reports it if it never
// fires), refuses a checkpoint directory that holds a previous run
// unless -resume was given, and starts the requested profiles and the
// trace file. The caller defers stop, which finishes the trace and the
// profiles.
func (f *flags) start() (stop func(), err error) {
	if f.inject != "" {
		inj, err := faults.Parse(f.inject)
		if err != nil {
			return nil, err
		}
		faults.Enable(faults.New(inj))
	}
	if f.checkpointDir != "" && !f.resume && checkpoint.Exists(f.checkpointDir) {
		return nil, fmt.Errorf("%s holds a previous run's checkpoint; pass -resume to continue it (or point -checkpoint-dir elsewhere)", f.checkpointDir)
	}
	stopProf, err := prof.StartOptions(f.prof)
	if err != nil {
		return nil, err
	}
	closeTrace, err := obs.TraceToFile(f.trace)
	if err != nil {
		return nil, errors.Join(err, stopProf())
	}
	return func() {
		if err := errors.Join(closeTrace(), stopProf()); err != nil {
			log.Print(err)
		}
	}, nil
}

// ids returns the experiments -experiment names, or all when it names
// none. Space around an ID and empty items (a trailing comma) are
// ignored, and a repeated ID is kept once, where it first appears. An ID
// the registry does not know is an error, so Run refuses it before it
// builds the network.
func (f *flags) ids(all []string) ([]string, error) {
	var ids []string
	for _, id := range strings.Split(f.experiment, ",") {
		if id = strings.TrimSpace(id); id == "" || slices.Contains(ids, id) {
			continue
		}
		if _, ok := core.Lookup(id); !ok {
			return nil, fmt.Errorf("-experiment: unknown experiment %q", id)
		}
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return all, nil
	}
	return ids, nil
}

// writeSnapshots runs a short 3-observer campaign with disk snapshots to
// demonstrate the netDb-directory watching workflow of Section 4.3. It
// checkpoints under <checkpoint-dir>/campaign: it is a different engine
// with its own manifest, which cannot share the experiment store's
// directory.
func writeSnapshots(ctx context.Context, study *core.Study, dir string) error {
	campaignCkpt := ""
	if study.Opts.CheckpointDir != "" {
		campaignCkpt = filepath.Join(study.Opts.CheckpointDir, "campaign")
	}
	c, err := measure.NewCampaign(study.Net, measure.CampaignConfig{
		Observers:     measure.DefaultObserverFleet(3),
		StartDay:      0,
		EndDay:        3,
		SnapshotDir:   dir,
		Workers:       study.Workers(),
		CheckpointDir: campaignCkpt,
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

// WriteResult writes one experiment to w: the "=== id: title" header,
// what the paper reports, the regenerated artifact, and the headline
// metrics sorted by name. These bytes are what the binaries print and
// what TestStudyDigests hashes.
func WriteResult(w io.Writer, res *core.Result) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, "=== %s: %s\n", res.ID, res.Title)
	if e, ok := core.Lookup(res.ID); ok {
		fmt.Fprintf(&b, "paper: %s\n\n", e.Paper)
	}
	fmt.Fprintln(&b, res.Text)
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-28s %.3f\n", k, res.Metrics[k])
	}
	b.WriteByte('\n')
	_, err := w.Write(b.Bytes())
	return err
}
