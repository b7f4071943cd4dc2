package censor

import (
	"context"
	"testing"
)

func crashSweepConfig(workers int) SweepConfig {
	return SweepConfig{
		Fleets:   []int{2, 5},
		Windows:  []int{1, 4},
		Days:     []int{8, 12, 16},
		SeedBase: 700,
		Workers:  workers,
	}
}

// TestSweepRunMatchesCursorFold pins the engine-owned Run product to
// the per-cell accessors: Run's CellResults, in Cells() order, carry
// each cell's Sweep.BlockingRate and Sweep.Blacklist length.
func TestSweepRunMatchesCursorFold(t *testing.T) {
	n := network(t)
	sw, err := NewSweep(n, crashSweepConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cells := sw.Cells()
	if len(res) != len(cells) {
		t.Fatalf("Run returned %d results for %d cells", len(res), len(cells))
	}
	for i, cell := range cells {
		if res[i].Cell != cell {
			t.Fatalf("result %d carries cell %+v, want %+v", i, res[i].Cell, cell)
		}
		if want := sw.BlockingRate(cell); res[i].BlockingRate != want {
			t.Fatalf("cell %d: BlockingRate %v, want from-scratch %v", i, res[i].BlockingRate, want)
		}
		if want := sw.Blacklist(cell).Len(); res[i].BlacklistLen != want {
			t.Fatalf("cell %d: BlacklistLen %d, want from-scratch %d", i, res[i].BlacklistLen, want)
		}
	}
}
