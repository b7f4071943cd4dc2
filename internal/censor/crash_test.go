package censor

import (
	"context"
	"errors"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/checkpoint"
	"github.com/i2pstudy/i2pstudy/internal/measure/enginetest"
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

// TestCrashResume is the censor sweep's crash-safety golden, stated
// through the shared harness: a run killed by an injected fault and
// resumed from its checkpoint directory yields CellResults
// byte-identical to an uninterrupted run, at every ladder width, with
// obs enabled. Rows checkpoint at (window, fleet) granularity; a
// resumed row's cells build no blacklist.
func TestCrashResume(t *testing.T) {
	n := network(t)
	enginetest.CrashResume(t, 2018, []enginetest.CrashCase{{
		Name:  "blocking-grid",
		Point: "censor.sweep.cell",
		Run: func(t testing.TB, dir string, workers int) (any, error) {
			sw, err := NewSweep(n, crashSweepConfig(workers))
			if err != nil {
				t.Fatal(err)
			}
			res, err := sw.RunCheckpointed(context.Background(), dir)
			if err != nil {
				return nil, err
			}
			return res, nil
		},
	}})
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

// TestSweepCheckpointManifestMismatch locks the refusal path at the
// engine level: a checkpoint directory written under one seed must not
// resume a sweep with another.
func TestSweepCheckpointMismatchRefused(t *testing.T) {
	n := network(t)
	dir := t.TempDir()
	sw, err := NewSweep(n, crashSweepConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.RunCheckpointed(context.Background(), dir); err != nil {
		t.Fatal(err)
	}
	cfg := crashSweepConfig(1)
	cfg.SeedBase = 701
	sw2, err := NewSweep(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sw2.RunCheckpointed(context.Background(), dir)
	var mm *checkpoint.MismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("resume under a different seed: err = %v, want *checkpoint.MismatchError", err)
	}
	if mm.Field != "seed" {
		t.Fatalf("MismatchError.Field = %q, want \"seed\"", mm.Field)
	}
}
