package distrib

import (
	"context"
	"fmt"

	"github.com/i2pstudy/i2pstudy/internal/checkpoint"
	"github.com/i2pstudy/i2pstudy/internal/measure"
)

// Checkpoint-format versions; bump when a result encoding or unit
// keying changes. sweepVersion 2: a cell unit is the one-element array
// of its result, not the bare object.
const (
	sweepVersion      = 2
	trustSweepVersion = 1
)

// hashEnumerator folds an enumerator's coordinates — the same fields
// cell/row seeds derive from.
func hashEnumerator(h *checkpoint.Hasher, e Enumerator) {
	h.Uint64(uint64(e.Kind))
	h.Float64(e.Budget)
	h.Float64(e.InsiderFrac)
}

// checkpointManifest identifies this arms-race sweep for resume
// purposes: network shape plus every grid axis and pool knob. Workers
// is excluded — a sweep may resume at any width.
func (s *Sweep) checkpointManifest() checkpoint.Manifest {
	h := checkpoint.NewHasher()
	measure.HashNetwork(h, s.Net)
	h.Int(int(s.Cfg.Strategy))
	h.Int(len(s.Cfg.Distributors))
	for _, d := range s.Cfg.Distributors {
		h.String(d.Name())
		h.Float64(d.IdentityCost())
	}
	h.Int(len(s.Cfg.Enumerators))
	for _, e := range s.Cfg.Enumerators {
		hashEnumerator(h, e)
	}
	h.Int(len(s.Cfg.Days))
	for _, d := range s.Cfg.Days {
		h.Int(d)
	}
	h.Int(s.Cfg.HorizonDays)
	h.Int(s.Cfg.Users)
	h.Int(s.Cfg.IntroducersPerBridge)
	h.Int(s.Cfg.MaxResources)
	return checkpoint.Manifest{
		Engine:     "distrib.Sweep",
		Version:    sweepVersion,
		ConfigHash: h.Sum(),
		Seed:       s.Cfg.SeedBase,
	}
}

// cellKey names the checkpoint unit holding one completed cell. Cells
// checkpoint individually — they carry no rolling state, so the cell is
// the natural atom (and the grid's coordinates are manifest-hashed, so
// index keys are stable).
func cellKey(i int) string { return fmt.Sprintf("cell-%05d", i) }

// RunCheckpointed is Run with crash safety: when dir is non-empty,
// every completed cell spills its CellResult to a checkpoint.Store
// there, and a rerun over the same directory loads finished cells
// instead of re-simulating their arms race. Resuming against state from
// a different sweep fails with a *checkpoint.MismatchError. Interrupted
// or not, the returned slice is byte-identical to an uninterrupted Run
// at any Workers value.
func (s *Sweep) RunCheckpointed(ctx context.Context, dir string) ([]CellResult, error) {
	cells := s.Cells()
	results := make([]CellResult, len(cells))
	units, err := checkpoint.OpenUnits(dir, s.checkpointManifest(), results,
		func(i int) int { return i }, cellKey, "distrib.sweep.cell")
	if err != nil {
		return nil, err
	}
	err = measure.FanOut(ctx, len(cells), s.Cfg.Workers, func(i int) error {
		if units.Resumed(i) {
			return nil
		}
		res, err := s.runCell(cells[i], nil)
		if err != nil {
			return err
		}
		return units.Commit(i, res)
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// checkpointManifest identifies this trust sweep for resume purposes.
// Workers is excluded — a sweep may resume at any width.
func (s *TrustSweep) checkpointManifest() checkpoint.Manifest {
	h := checkpoint.NewHasher()
	measure.HashNetwork(h, s.Net)
	h.Int(int(s.Cfg.Strategy))
	h.Int(len(s.Cfg.Distributors))
	for _, d := range s.Cfg.Distributors {
		h.String(d.Name())
		h.Float64(d.IdentityCost())
		h.Int(d.Graph().Len())
	}
	h.Int(len(s.Cfg.Enumerators))
	for _, e := range s.Cfg.Enumerators {
		hashEnumerator(h, e)
	}
	h.Int(s.Cfg.Day)
	h.Int(s.Cfg.HorizonDays)
	h.Int(s.Cfg.IntroducersPerBridge)
	h.Int(s.Cfg.MaxResources)
	return checkpoint.Manifest{
		Engine:     "distrib.TrustSweep",
		Version:    trustSweepVersion,
		ConfigHash: h.Sum(),
		Seed:       s.Cfg.SeedBase,
	}
}

// trustRowKey names the checkpoint unit holding one completed
// (distributor, enumerator) row — the whole horizon in day order. Rows
// are the trust grid's atom: a row's day h state is day h-1's plus one
// step, so a partial row is worthless for resume (the replay would have
// to run anyway) while a complete row skips its entire simulation.
func trustRowKey(row int) string { return fmt.Sprintf("row-%03d", row) }

// RunCheckpointed is Run with crash safety: when dir is non-empty,
// every completed (distributor, enumerator) row spills its results to a
// checkpoint.Store there, and a rerun over the same directory loads
// finished rows instead of replaying them — skipped rows never even
// build their trustState. Resuming against state from a different sweep
// fails with a *checkpoint.MismatchError. Interrupted or not, the
// returned slice is byte-identical to an uninterrupted Run at any
// Workers value.
func (s *TrustSweep) RunCheckpointed(ctx context.Context, dir string) ([]TrustCellResult, error) {
	cells := s.Cells()
	rows := len(s.Cfg.Enumerators) * len(s.Cfg.Distributors)
	results := make([]TrustCellResult, len(cells))
	units, err := checkpoint.OpenUnits(dir, s.checkpointManifest(), results,
		func(i int) int { return i % rows }, trustRowKey, "distrib.trustsweep.cell")
	if err != nil {
		return nil, err
	}
	// Cells lay days outermost, so row r's cells are r, r+rows, … in
	// ascending day order, and cell r is the row's first.
	err = measure.FanOut(ctx, rows, s.Cfg.Workers, func(r int) error {
		if units.Resumed(r) {
			return nil // no state built
		}
		st := s.newTrustState(cells[r].Dist, cells[r].Enum)
		for i := r; i < len(cells); i += rows {
			if err := ctx.Err(); err != nil {
				return err
			}
			st.advanceTo(cells[i].Day)
			if err := units.Commit(i, st.result(cells[i])); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
