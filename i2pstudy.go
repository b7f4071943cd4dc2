// Package i2pstudy reproduces "An Empirical Study of the I2P Anonymity
// Network and its Censorship Resistance" (Hoang, Kintis, Antonakakis,
// Polychronakis — IMC 2018) as a self-contained Go library.
//
// The live I2P network is replaced by a calibrated synthetic network (see
// internal/sim for the substitution argument); everything above it is real
// systems code: the netDb data structures and RouterInfo codec, the XOR
// metric with daily routing-key rotation, an NTCP-style obfuscated
// handshake and the wire sizes it shows a middlebox, weighted tunnel-hop
// selection under a tunnel-build timing model, reseed servers with signed
// su3-style bundles, the measurement pipeline behind every figure in the
// paper's Section 5, and the Section 6 censorship models.
//
// Quick start:
//
//	study, err := i2pstudy.NewStudy(i2pstudy.DefaultOptions())
//	if err != nil { ... }
//	res, err := study.RunExperiment("figure-13")
//	fmt.Println(res.Text)
//
// The experiment registry (Experiments) contains one entry per table and
// figure in the paper plus the extension studies; cmd/i2pmeasure and
// cmd/i2pcensor expose the same registry on the command line, and
// bench_test.go regenerates every artifact under `go test -bench`.
package i2pstudy

import (
	"github.com/i2pstudy/i2pstudy/internal/core"
)

// Study owns a synthetic network and caches the main measurement campaign.
// See core.Study.
type Study = core.Study

// Options configures a Study.
type Options = core.Options

// Experiment is one registered paper artifact.
type Experiment = core.Experiment

// Result is the outcome of running an experiment.
type Result = core.Result

// NewStudy builds a study for the given options.
func NewStudy(opts Options) (*Study, error) { return core.NewStudy(opts) }

// DefaultOptions returns the 1/10-scale configuration used by tests and
// benches; absolute counts scale by Study.Scale(). The shapes it is held
// to are each experiment's Expectations, the paper's bounds in the
// registry; ROADMAP.md's "Measured state" records where the output and
// the paper still disagree.
func DefaultOptions() Options { return core.DefaultOptions() }

// FullScaleOptions returns the paper-scale configuration: ~30.5K daily
// peers over 90 days.
func FullScaleOptions() Options { return core.FullScaleOptions() }

// Experiment categories; every registered experiment carries one.
const (
	CategoryPopulation   = core.CategoryPopulation
	CategoryCensorship   = core.CategoryCensorship
	CategoryAblation     = core.CategoryAblation
	CategoryDistribution = core.CategoryDistribution
)

// Experiments lists every registered experiment sorted by ID.
func Experiments() []Experiment { return core.Experiments() }

// ExperimentIDs lists the IDs of experiments in a category (all when
// empty), sorted.
func ExperimentIDs(category string) []string { return core.ExperimentIDs(category) }

// Lookup returns the experiment registered under id.
func Lookup(id string) (Experiment, bool) { return core.Lookup(id) }
