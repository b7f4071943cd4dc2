// Package core ties the substrates together into the paper's study: one
// Study object owns a synthetic network, runs the main measurement
// campaign, and exposes a registry of experiments — one per table and
// figure in the paper's evaluation — each returning a rendered artifact
// plus headline metrics, which the experiment's Expectations bound by
// what the paper reports.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/i2pstudy/i2pstudy/internal/checkpoint"
	"github.com/i2pstudy/i2pstudy/internal/measure"
	"github.com/i2pstudy/i2pstudy/internal/pool"
	"github.com/i2pstudy/i2pstudy/internal/sim"
	"github.com/i2pstudy/i2pstudy/internal/stats"
)

// runAllVersion is RunAll's checkpoint-format version; bump it when the
// Result encoding or the unit keying changes. Version 2: an experiment
// unit is the one-element array of its Result, not the bare object.
const runAllVersion = 2

// checkpointManifest identifies this study for resume purposes. The
// experiment set is not hashed: units are keyed by experiment ID, so
// running different subsets against one directory is safe and useful.
func (s *Study) checkpointManifest() checkpoint.Manifest {
	h := checkpoint.NewHasher()
	measure.HashNetwork(h, s.Net)
	h.Int(s.Opts.MainFleetSize)
	return checkpoint.Manifest{
		Engine:     "core.Study.RunAll",
		Version:    runAllVersion,
		ConfigHash: h.Sum(),
		Seed:       s.Opts.Seed,
	}
}

// Options configures a Study.
type Options struct {
	// Seed drives all randomness.
	Seed uint64
	// Days is the study horizon. The paper ran ~90 days; experiments need
	// at least 40 (Figure 13's 30-day blacklist window plus slack).
	Days int
	// TargetDailyPeers scales the network. The paper's network had ~30.5K
	// daily peers; benches default to a 1/10-scale network, which the
	// experiments' Expectations are asserted at.
	TargetDailyPeers int
	// MainFleetSize is the number of observers in the main campaign (the
	// paper used 20: 10 floodfill + 10 non-floodfill).
	MainFleetSize int
	// Workers caps the concurrency of the campaign engine and of RunAll.
	// Zero or negative selects one worker per CPU; 1 runs every engine
	// inline on the caller's goroutine. Results are identical for every
	// worker count.
	Workers int
	// CheckpointDir, when non-empty, persists each finished experiment's
	// Result so an interrupted RunAll resumes by loading completed
	// experiments instead of re-running them. The directory is keyed by
	// a manifest over (seed, network shape, fleet size, engine version);
	// resuming against state from a different study fails with a
	// *checkpoint.MismatchError. Workers is excluded from the key — a
	// study may resume at any width.
	CheckpointDir string
}

// DefaultOptions returns the 1/10-scale configuration used by tests and
// benches.
func DefaultOptions() Options {
	return Options{Seed: 2018, Days: 45, TargetDailyPeers: 3050, MainFleetSize: 20}
}

// FullScaleOptions returns the paper-scale configuration (30.5K daily
// peers, 90 days). Building it takes a few seconds and a few hundred MB.
func FullScaleOptions() Options {
	return Options{Seed: 2018, Days: 90, TargetDailyPeers: sim.PaperDailyPeers, MainFleetSize: 20}
}

// Study owns a network and caches the main campaign's dataset so that the
// population experiments (Figures 5–12, Table 1) share one run, exactly as
// the paper derived all of Section 5 from one three-month campaign.
type Study struct {
	Opts Options
	Net  *sim.Network

	mu      sync.Mutex
	dataset *measure.Dataset

	// fleetScratch recycles fleetDays' scratch (*fleetScratch) across
	// days and experiments: sync.Pool keeps it per P, so each worker
	// reuses its own, as sim's draw positions are kept.
	fleetScratch sync.Pool
}

// NewStudy builds the network for the given options.
func NewStudy(opts Options) (*Study, error) {
	if opts.Days < 40 {
		return nil, fmt.Errorf("core: need at least 40 days for the blacklist-window experiments, got %d", opts.Days)
	}
	if opts.MainFleetSize <= 0 {
		opts.MainFleetSize = 20
	}
	net, err := sim.New(sim.Config{
		Seed:             opts.Seed,
		Days:             opts.Days,
		TargetDailyPeers: opts.TargetDailyPeers,
	})
	if err != nil {
		return nil, err
	}
	return &Study{Opts: opts, Net: net}, nil
}

// Scale returns the study's size relative to the paper's ~30.5K daily
// peers; multiply reported counts by 1/Scale to compare against the paper.
func (s *Study) Scale() float64 {
	return float64(s.Opts.TargetDailyPeers) / sim.PaperDailyPeers
}

// Workers returns the study's effective engine concurrency.
func (s *Study) Workers() int { return pool.Width(s.Opts.Workers) }

// MainDataset runs (once) and returns the main campaign with a background
// context. See MainDatasetContext.
func (s *Study) MainDataset() (*measure.Dataset, error) {
	return s.MainDatasetContext(context.Background())
}

// MainDatasetContext runs (once) and returns the main campaign:
// MainFleetSize observers, alternating modes, full horizon, Workers-wide
// engine. Concurrent callers share one run; a cancelled run is not
// cached, so a later call retries.
func (s *Study) MainDatasetContext(ctx context.Context) (*measure.Dataset, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dataset != nil {
		return s.dataset, nil
	}
	c, err := measure.NewCampaign(s.Net, measure.CampaignConfig{
		Observers: measure.DefaultObserverFleet(s.Opts.MainFleetSize),
		StartDay:  0,
		EndDay:    s.Opts.Days,
		Workers:   s.Workers(),
	})
	if err != nil {
		return nil, err
	}
	ds, err := c.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	s.dataset = ds
	return ds, nil
}

// Result is the outcome of one experiment.
type Result struct {
	// ID and Title identify the experiment.
	ID, Title string
	// Text is the rendered table/series (the regenerated artifact).
	Text string
	// Figure, when non-nil, is the structured series behind Text; the CLI
	// tools export it as CSV.
	Figure *stats.Figure
	// Metrics carries the headline numbers that the experiment's
	// Expectations bound and the bench harness reports.
	Metrics map[string]float64
}

// Experiment categories. Every registered experiment carries exactly one;
// the study binaries derive their experiment sets from these tags, each
// passing two to studycli.Run (cmd/i2pmeasure CategoryAblation and
// CategoryPopulation, cmd/i2pcensor CategoryCensorship and
// CategoryDistribution), so adding an experiment can never silently
// drift out of a hand-maintained ID list.
const (
	// CategoryPopulation tags the Section 5 artifacts (Figures 2-12,
	// Table 1, the floodfill population estimate).
	CategoryPopulation = "population"
	// CategoryCensorship tags the Section 2.2.2 and Section 6-7 artifacts
	// (blocking, usability, reseed, bridges, DPI, eclipse).
	CategoryCensorship = "censorship"
	// CategoryAblation tags the extension ablation studies.
	CategoryAblation = "ablation"
	// CategoryDistribution tags the bridge-distribution pipeline
	// experiments (internal/distrib): distributor-vs-enumerator arms
	// races over the Section 7.1 bridge pools.
	CategoryDistribution = "distribution"
)

// Experiment maps one paper artifact to a runnable.
type Experiment struct {
	// ID is the registry key, e.g. "figure-05" or "table-01".
	ID string
	// Title is the paper's caption, abbreviated.
	Title string
	// Paper summarizes the expected result from the paper; the CLIs
	// print it on the artifact's paper: line.
	Paper string
	// Expectations are the bounds the paper puts on Run's metrics at
	// DefaultOptions; TestKeyShapeMetrics asserts every row.
	Expectations []Expectation
	// Category groups the experiment for the CLIs; one of the Category*
	// constants. Required at registration.
	Category string
	// Run executes the experiment against a study. Implementations must
	// honor ctx cancellation between expensive stages and must treat the
	// study's network as read-only so RunAll can run them concurrently.
	Run func(context.Context, *Study) (*Result, error)
}

// Expectation bounds one of an experiment's metrics by what the paper
// reports.
type Expectation struct {
	// Metric names the bounded value in Result.Metrics.
	Metric string
	// Per, when set, names a second metric the first is divided by: the
	// bounded value is Metrics[Metric] / Metrics[Per]. It states an
	// ordering between two metrics without adding a third.
	Per string
	// Lo and Hi bound the value inclusively; an open side is math.Inf.
	// A strict bound is the next float inside it (math.Nextafter).
	Lo, Hi float64
	// Source is the paper's figure or section the bound comes from.
	Source string
}

var (
	registryMu sync.Mutex
	registry   = map[string]Experiment{}
)

// register adds an experiment to the registry; duplicate IDs or missing
// categories panic (they are programming errors).
func register(e Experiment) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[e.ID]; dup {
		panic("core: duplicate experiment " + e.ID)
	}
	switch e.Category {
	case CategoryPopulation, CategoryCensorship, CategoryAblation, CategoryDistribution:
	default:
		panic("core: experiment " + e.ID + " has invalid category " + fmt.Sprintf("%q", e.Category))
	}
	registry[e.ID] = e
}

// Experiments returns all registered experiments sorted by ID.
func Experiments() []Experiment {
	registryMu.Lock()
	defer registryMu.Unlock()
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ExperimentIDs returns the IDs of registered experiments in the given
// category, sorted; the empty category selects every experiment.
func ExperimentIDs(category string) []string {
	var out []string
	for _, e := range Experiments() {
		if category == "" || e.Category == category {
			out = append(out, e.ID)
		}
	}
	return out
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Experiment, bool) {
	registryMu.Lock()
	defer registryMu.Unlock()
	e, ok := registry[id]
	return e, ok
}

// RunExperiment looks up and runs one experiment with a background
// context.
func (s *Study) RunExperiment(id string) (*Result, error) {
	return s.RunExperimentContext(context.Background(), id)
}

// RunExperimentContext looks up and runs one experiment.
func (s *Study) RunExperimentContext(ctx context.Context, id string) (*Result, error) {
	e, ok := Lookup(id)
	if !ok {
		return nil, fmt.Errorf("core: unknown experiment %q", id)
	}
	return e.Run(ctx, s)
}

// RunAll runs the given experiments (all registered ones when ids is
// empty) across a Workers-wide pool and returns their results in the
// requested order. Experiments only read the shared network, and the
// main-campaign dataset is built once under the study lock, so arbitrary
// subsets can run side by side; each experiment's output is identical to
// a sequential RunExperiment call. The first failure (or ctx
// cancellation) cancels the remaining runs.
func (s *Study) RunAll(ctx context.Context, ids ...string) ([]*Result, error) {
	if len(ids) == 0 {
		for _, e := range Experiments() {
			ids = append(ids, e.ID)
		}
	}
	// Resolve every ID up front: an unknown experiment should fail fast,
	// not after its predecessors ran for minutes.
	exps := make([]Experiment, len(ids))
	for i, id := range ids {
		e, ok := Lookup(id)
		if !ok {
			return nil, fmt.Errorf("core: unknown experiment %q", id)
		}
		exps[i] = e
	}

	// With a checkpoint directory, completed experiments load from disk
	// instead of re-running. Units are keyed by experiment ID, so the
	// requested subset (and its order) is free to differ between runs.
	results := make([]*Result, len(exps))
	units, err := checkpoint.OpenUnits(s.Opts.CheckpointDir, s.checkpointManifest(), results,
		func(i int) string { return "exp-" + exps[i].ID },
		"core.runall.experiment")
	if err != nil {
		return nil, err
	}

	// Experiments run under cctx so the first failure stops the ones in
	// flight, not only the ones FanOut has yet to start.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	err = pool.FanOut(cctx, len(exps), s.Workers(), func(i int) error {
		if units.Resumed(i) {
			return nil
		}
		res, err := exps[i].Run(cctx, s)
		if err == nil {
			err = units.Commit(i, res)
		}
		switch {
		case err == nil:
			return nil
		case errors.Is(err, context.Canceled) && cctx.Err() != nil:
			// Cancellation fallout from the parent ctx or from a peer
			// experiment's failure; FanOut reports the root cause, not
			// this bystander's error.
			return nil
		}
		cancel()
		return fmt.Errorf("%s: %w", exps[i].ID, err)
	})
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		if res == nil {
			return nil, fmt.Errorf("core: %s returned no result", exps[i].ID)
		}
	}
	return results, nil
}
