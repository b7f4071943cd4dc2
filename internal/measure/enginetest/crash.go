package enginetest

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/faults"
)

// CrashCase is one engine's crash-resume scenario.
type CrashCase struct {
	// Name labels the subtest.
	Name string
	// Point is the engine's fault-injection boundary (e.g.
	// "censor.sweep.cell") — the harness counts how many times a clean
	// run crosses it, then arms a crash at a seeded crossing.
	Point string
	// Run executes the engine at the given worker count with the given
	// checkpoint directory ("" disables checkpointing) and returns a
	// deep-comparable artifact. Workers = 1 must be the serial reference
	// path, and a run over a directory holding prior state must resume
	// from it.
	Run func(t testing.TB, dir string, workers int) (any, error)
}

// CrashResume asserts the crash-resume golden for every case, across
// the Workers ladder, with obs counters and tracing enabled: a run
// interrupted by a deterministically injected fault and then resumed
// from its checkpoint directory yields an artifact byte-identical to
// the uninterrupted reference. The crash crossing is drawn from seed,
// making the crash point part of the seeded input — rerunning the same
// seed reruns the same crashes.
//
// The injected fault is Error-mode: it surfaces as a task error the
// engine propagates, which models any mid-run failure that kills the
// process before completion (hard-exit injection on real binaries is
// exercised by scripts/crash_resume_smoke.sh, where a dead process
// can't take the test runner with it).
func CrashResume(t *testing.T, seed uint64, cases []CrashCase) {
	t.Helper()
	enableObs(t)
	t.Cleanup(func() { faults.Enable(nil) })
	for ci, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			// Reference: serial, no checkpointing, counting-only injector —
			// this measures how many times the engine crosses the fault
			// point, which is width-independent (the boundary is a unit of
			// work, not of scheduling).
			counter := faults.New()
			faults.Enable(counter)
			ref, err := c.Run(t, "", 1)
			faults.Enable(nil)
			if err != nil {
				t.Fatalf("reference run failed: %v", err)
			}
			if ref == nil {
				t.Fatal("reference run produced no artifact")
			}
			hits := counter.Hits(c.Point)
			if hits == 0 {
				t.Fatalf("reference run never crossed fault point %q — wrong point name or dead instrumentation", c.Point)
			}

			rng := rand.New(rand.NewPCG(seed, seed^uint64(ci)+1))
			for _, w := range Workers() {
				t.Run(fmt.Sprintf("workers-%d", w), func(t *testing.T) {
					dir := t.TempDir()
					// Crash at a seeded crossing in [1, hits].
					n := 1 + rng.Uint64()%hits
					faults.Enable(faults.New(faults.Injection{
						Point: c.Point, N: n, Mode: faults.Error,
					}))
					_, err := c.Run(t, dir, w)
					faults.Enable(nil)
					if err == nil {
						t.Fatalf("crash run survived an armed injection at %s crossing %d", c.Point, n)
					}
					if !errors.Is(err, faults.ErrInjected) {
						t.Fatalf("crash run failed with %v, want the injected fault", err)
					}
					// Resume from the checkpoint directory, injector disarmed.
					got, err := c.Run(t, dir, w)
					if err != nil {
						t.Fatalf("resume run failed: %v", err)
					}
					if !reflect.DeepEqual(got, ref) {
						t.Errorf("Workers=%d: resumed artifact differs from the uninterrupted reference (crash was at %s crossing %d)",
							w, c.Point, n)
					}
				})
			}
		})
	}
}
