// Package cli is what cmd/i2pcensor and cmd/i2pmeasure share: the flag
// block that configures a study run, the lifecycle those flags ask for
// (fault injection, the existing-checkpoint refusal, profiles, the
// trace file, Ctrl-C), and the result writer. A command is a
// run() error handed to Main, so every failure path returns through
// the deferred stop — a failed or interrupted run still writes its
// profiles and terminates its trace's JSON array.
package cli

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strings"
	"syscall"

	"github.com/i2pstudy/i2pstudy/internal/checkpoint"
	"github.com/i2pstudy/i2pstudy/internal/core"
	"github.com/i2pstudy/i2pstudy/internal/faults"
	"github.com/i2pstudy/i2pstudy/internal/obs"
	"github.com/i2pstudy/i2pstudy/internal/prof"
)

// Main runs a command and is its only exit site: an error is reported
// on stderr under the command's name and exits 1, cancellation as a
// plain "interrupted". A run that succeeds without firing its -inject
// fails too, so a crash drill aimed at a point the run never reaches
// cannot pass.
func Main(name string, run func() error) {
	log.SetFlags(0)
	log.SetPrefix(name + ": ")
	err := run()
	if err == nil {
		err = unfired()
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			log.Fatal("interrupted")
		}
		log.Fatal(err)
	}
}

// Flags holds the parsed values of the shared flag block; the two a
// command reads back itself are exported.
type Flags struct {
	Scale         float64
	CheckpointDir string

	seed       uint64
	days       int
	workers    int
	experiment string

	resume bool
	inject string
	prof   prof.Options
	trace  string
}

// Register declares the shared flags on the default flag set; call
// flag.Parse afterwards, then Start.
func Register() *Flags {
	f := &Flags{}
	flag.Float64Var(&f.Scale, "scale", 0.1, "network scale relative to the paper's 30.5K daily peers")
	flag.Uint64Var(&f.seed, "seed", 2018, "simulation seed")
	flag.IntVar(&f.days, "days", 45, "study horizon in days (>= 40)")
	flag.IntVar(&f.workers, "workers", 0, "engine concurrency (0 = one worker per CPU, 1 = serial)")
	flag.StringVar(&f.experiment, "experiment", "", "run specific experiments (comma-separated IDs)")
	flag.StringVar(&f.CheckpointDir, "checkpoint-dir", "", "spill finished experiments here so an interrupted run can resume")
	flag.BoolVar(&f.resume, "resume", false, "continue from an existing -checkpoint-dir instead of refusing it")
	flag.StringVar(&f.inject, "inject", "", "arm a deterministic fault: point:N:mode (mode = error|panic|exit)")
	flag.StringVar(&f.prof.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&f.prof.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	flag.StringVar(&f.prof.BlockProfile, "blockprofile", "", "write a blocking-contention profile to this file on exit")
	flag.StringVar(&f.prof.MutexProfile, "mutexprofile", "", "write a mutex-contention profile to this file on exit")
	flag.StringVar(&f.trace, "trace", "", "write a Chrome trace-event JSON file of engine spans (open in Perfetto)")
	return f
}

// armed is the fault -inject armed and the injector counting its
// crossings, process-wide as faults.Enable is: Start sets it, and Main
// reads it through unfired after a successful run.
var armed struct {
	inj faults.Injection
	in  *faults.Injector
}

// unfired returns an error naming the armed injection's point when the
// run crossed it fewer than N times, so the fault never fired; nil when
// nothing was armed.
func unfired() error {
	if armed.in == nil {
		return nil
	}
	if hits := armed.in.Hits(armed.inj.Point); hits < armed.inj.N {
		return fmt.Errorf("-inject %s:%d:%s never fired: the run crossed %s %d times",
			armed.inj.Point, armed.inj.N, armed.inj.Mode, armed.inj.Point, hits)
	}
	return nil
}

// Start arms the injected fault, refuses a checkpoint directory that
// holds a previous run unless -resume was given, starts the requested
// profiles and the trace file, and returns a context that SIGINT or
// SIGTERM cancels. The caller defers stop, which finishes the trace and
// the profiles.
func (f *Flags) Start() (ctx context.Context, stop func(), err error) {
	if f.inject != "" {
		inj, err := faults.Parse(f.inject)
		if err != nil {
			return nil, nil, err
		}
		armed.inj, armed.in = inj, faults.New(inj)
		faults.Enable(armed.in)
	}
	if f.CheckpointDir != "" && !f.resume && checkpoint.Exists(f.CheckpointDir) {
		return nil, nil, fmt.Errorf("%s holds a previous run's checkpoint; pass -resume to continue it (or point -checkpoint-dir elsewhere)", f.CheckpointDir)
	}
	stopProf, err := prof.StartOptions(f.prof)
	if err != nil {
		return nil, nil, err
	}
	closeTrace, err := obs.TraceToFile(f.trace)
	if err != nil {
		if err := stopProf(); err != nil {
			log.Print(err)
		}
		return nil, nil, err
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	return ctx, func() {
		cancel()
		if err := closeTrace(); err != nil {
			log.Print(err)
		}
		if err := stopProf(); err != nil {
			log.Print(err)
		}
	}, nil
}

// NewStudy builds the study the flags describe.
func (f *Flags) NewStudy() (*core.Study, error) {
	opts := core.DefaultOptions()
	opts.Seed = f.seed
	opts.Days = f.days
	opts.TargetDailyPeers = int(f.Scale * 30500)
	opts.Workers = f.workers
	opts.CheckpointDir = f.CheckpointDir
	return core.NewStudy(opts)
}

// IDs returns the experiments -experiment names, or all when it names
// none. Space around an ID and empty items (a trailing comma) are
// ignored, and a repeated ID is kept once, where it first appears. An ID
// the registry does not know is an error, so a command can refuse it
// before it builds the network.
func (f *Flags) IDs(all []string) ([]string, error) {
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
