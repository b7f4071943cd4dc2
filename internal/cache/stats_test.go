package cache

import (
	"strings"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/obs"
)

// withRegistry enables a fresh registry for the test's duration and
// returns it, restoring whatever was enabled before.
func withRegistry(t *testing.T) *obs.Registry {
	t.Helper()
	prev := obs.Active()
	r := obs.NewRegistry()
	obs.Enable(r)
	t.Cleanup(func() { obs.Enable(prev) })
	return r
}

// wantRendered fails the test for every line the registry's text
// exposition does not contain.
func wantRendered(t *testing.T, r *obs.Registry, lines ...string) {
	t.Helper()
	text := r.RenderText()
	for _, want := range lines {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q:\n%s", want, text)
		}
	}
}

func TestDayMemoCountsHitsMisses(t *testing.T) {
	r := withRegistry(t)
	m := NewDayMemo[int](2, "test_ring")
	compute := func(day int) int { return day }

	m.Get(0, compute) // miss
	m.Get(0, compute) // hit
	m.Get(1, compute) // miss
	m.Get(2, compute) // out of range: a miss every time
	m.Get(2, compute)
	m.Get(1, compute) // hit

	wantRendered(t, r,
		`i2p_cache_hits_total{ring="test_ring"} 2`,
		`i2p_cache_misses_total{ring="test_ring"} 4`)
}

func TestDayMemoStatsFollowRegistrySwap(t *testing.T) {
	r1 := withRegistry(t)
	m := NewDayMemo[int](2, "swap_ring")
	m.Get(0, func(d int) int { return d })
	wantRendered(t, r1, `i2p_cache_misses_total{ring="swap_ring"} 1`)

	r2 := obs.NewRegistry()
	obs.Enable(r2)
	m.Get(1, func(d int) int { return d })
	m.Get(1, func(d int) int { return d })
	wantRendered(t, r2,
		`i2p_cache_misses_total{ring="swap_ring"} 1`,
		`i2p_cache_hits_total{ring="swap_ring"} 1`)
	// The first registry stopped counting at the swap.
	wantRendered(t, r1, `i2p_cache_misses_total{ring="swap_ring"} 1`)
}

func TestDayMemoDisabledIsInert(t *testing.T) {
	prev := obs.Active()
	obs.Enable(nil)
	t.Cleanup(func() { obs.Enable(prev) })
	m := NewDayMemo[int](4, "test")
	if got := m.Get(3, func(d int) int { return d * 2 }); got != 6 {
		t.Fatalf("Get with observability disabled = %d, want 6", got)
	}
}

func TestPreRegisterRingMaterializesAtZero(t *testing.T) {
	PreRegisterRing("eager_ring")
	wantRendered(t, withRegistry(t),
		`i2p_cache_hits_total{ring="eager_ring"} 0`,
		`i2p_cache_misses_total{ring="eager_ring"} 0`)
}
