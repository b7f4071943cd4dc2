// Package enginetest is the shared table-driven harness behind the
// engines' worker-determinism goldens and crash drills. Every parallel
// engine in the repo — the measurement campaign, the censor sweep, the
// distrib arms-race sweep, the trust-graph row engine, the experiment
// registry — carries the same contract: any Workers value yields a
// byte-identical artifact. This package states that contract once, as a
// table of cases, instead of each package hand-rolling its own ladder
// loop; adding an engine means adding a Case, and the ladder (serial
// reference, a fixed small width, one worker per CPU, and the auto
// width) stays uniform everywhere. CrashResume holds the units a binary
// can resume — core.Study.RunAll's experiments, and the campaign's day
// units — to resuming byte-identically; the sweeps carry no store of
// their own and are drilled through RunAll.
package enginetest

import (
	"io"
	"reflect"
	"runtime"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/obs"
)

// Case is one engine scenario.
type Case struct {
	// Name labels the subtest.
	Name string
	// Run executes the engine at the given worker count and returns a
	// deep-comparable artifact. Workers = 1 must be the engine's serial
	// reference path.
	Run func(t testing.TB, workers int) any
}

// Workers returns the canonical determinism ladder: 1 is the serial
// reference the others are compared against; 4 a fixed small width
// (stable across machines); NumCPU the saturated pool; 0 the engine's
// auto width.
func Workers() []int { return []int{1, 4, runtime.NumCPU(), 0} }

// enableObs turns observability fully on for the rest of the test — a
// fresh counter registry and a tracer draining to io.Discard — and
// restores the previous switches at cleanup. Every harness here runs
// under it, which is what holds the obs layer to its hard contract:
// counters and spans record scheduling facts and never influence a
// result.
func enableObs(t *testing.T) {
	t.Helper()
	prevReg, prevTr := obs.Active(), obs.ActiveTracer()
	obs.Enable(obs.NewRegistry())
	obs.EnableTrace(obs.NewTracer(io.Discard))
	t.Cleanup(func() {
		obs.Enable(prevReg)
		obs.EnableTrace(prevTr)
	})
}

// Golden asserts the worker-determinism contract for every case: each
// ladder width produces an artifact reflect.DeepEqual-identical to the
// serial reference. Cases run as subtests, so a failure names the
// engine and the width that diverged.
//
// The whole ladder runs with observability fully enabled (enableObs).
func Golden(t *testing.T, cases []Case) {
	t.Helper()
	enableObs(t)
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			ladder := Workers()
			serial := c.Run(t, ladder[0])
			if serial == nil {
				t.Fatal("serial reference produced no artifact")
			}
			for _, w := range ladder[1:] {
				if got := c.Run(t, w); !reflect.DeepEqual(got, serial) {
					t.Errorf("Workers=%d: artifact differs from the serial reference", w)
				}
			}
		})
	}
}
