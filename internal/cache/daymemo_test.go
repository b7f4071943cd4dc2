package cache

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestDayMemoComputesOncePerResidentDay(t *testing.T) {
	m := NewDayMemo[int](4, testRing)
	var computes atomic.Int32
	compute := func(day int) int {
		computes.Add(1)
		return day * 10
	}
	for i := 0; i < 3; i++ {
		for day := 0; day < 4; day++ {
			if got := m.Get(day, compute); got != day*10 {
				t.Fatalf("Get(%d) = %d, want %d", day, got, day*10)
			}
		}
	}
	if got := computes.Load(); got != 4 {
		t.Fatalf("computed %d times, want 4 (once per day)", got)
	}
}

// TestDayMemoOutOfRangeDayComputedNotKept: a day the memo has no slot
// for — negative, or past the study — is computed on every call, never
// retained, and never panics.
func TestDayMemoOutOfRangeDayComputedNotKept(t *testing.T) {
	m := NewDayMemo[int](3, testRing)
	var computes atomic.Int32
	compute := func(day int) int {
		computes.Add(1)
		return day * 10
	}
	for _, day := range []int{-1, 3, 1 << 20} {
		for i := 0; i < 2; i++ {
			if got := m.Get(day, compute); got != day*10 {
				t.Fatalf("Get(%d) = %d, want %d", day, got, day*10)
			}
		}
	}
	if got := computes.Load(); got != 6 {
		t.Fatalf("computed %d times, want 6 (every out-of-range call)", got)
	}
}

// TestDayMemoConcurrentFirstCallersShareOneCompute: many goroutines
// hitting one cold day observe exactly one compute (the slot's once),
// all see the same value, and the waiters count as hits.
func TestDayMemoConcurrentFirstCallersShareOneCompute(t *testing.T) {
	r := withRegistry(t)
	m := NewDayMemo[[]int](8, raceRing)
	var computes atomic.Int32
	compute := func(day int) []int {
		computes.Add(1)
		return []int{day, day + 1}
	}
	const goroutines = 16
	results := make([][]int, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[g] = m.Get(7, compute)
		}()
	}
	wg.Wait()
	if computes.Load() != 1 {
		t.Fatalf("computed %d times, want 1", computes.Load())
	}
	for g := 1; g < goroutines; g++ {
		if &results[g][0] != &results[0][0] {
			t.Fatal("concurrent callers received different slices")
		}
	}
	wantRendered(t, r,
		`i2p_cache_hits_total{ring="race_ring"} 15`,
		`i2p_cache_misses_total{ring="race_ring"} 1`)
}
