package enginetest

import (
	"reflect"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/pool"
)

// StreamCase is one engine scenario for the bounded-memory contract: at
// any width the engine must produce the artifact its Workers = 1 run
// produces while holding provably fewer in-flight units than the grid
// size.
type StreamCase struct {
	// Name labels the subtest.
	Name string
	// Run executes the engine at the given worker count, returning the
	// artifact and the peak number of simultaneously retained units the
	// run observed.
	Run func(t testing.TB, workers int) (artifact any, peakUnits int)
	// MaxRetained returns the peak-unit ceiling the engine guarantees
	// for a resolved worker count (the harness resolves the auto width
	// through pool.Width, as the engines do, before calling it). The ceiling
	// must be derived from the engine's pipeline structure — O(workers)
	// — never from the grid size.
	MaxRetained func(workers int) int
}

// Stream asserts the bounded-memory contract for every case across the
// canonical worker ladder: at each width the artifact is
// reflect.DeepEqual-identical to the Workers = 1 reference, and the
// engine's peak retained-unit count stays within the structural ceiling
// MaxRetained reports. Peak accounting is asserted as a unit count, not
// a wall-clock ReadMemStats reading, so the contract is exact and free
// of allocator noise.
//
// Like Golden, the whole ladder runs with observability fully enabled,
// so the accounting's instrumentation can never influence a result.
func Stream(t *testing.T, cases []StreamCase) {
	t.Helper()
	enableObs(t)
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			var reference any
			for _, w := range Workers() {
				got, peak := c.Run(t, w)
				if got == nil {
					t.Fatalf("Workers=%d: run produced no artifact", w)
				}
				if reference == nil {
					reference = got // the ladder starts at Workers = 1
				} else if !reflect.DeepEqual(got, reference) {
					t.Errorf("Workers=%d: artifact differs from the Workers=1 reference", w)
				}
				ceiling := c.MaxRetained(pool.Width(w))
				if peak > ceiling {
					t.Errorf("Workers=%d: peak retained units %d exceeds the structural ceiling %d", w, peak, ceiling)
				}
				if peak < 1 {
					t.Errorf("Workers=%d: peak retained units %d — accounting looks dead", w, peak)
				}
			}
		})
	}
}
