package censor

import (
	"context"
	"fmt"

	"github.com/i2pstudy/i2pstudy/internal/checkpoint"
	"github.com/i2pstudy/i2pstudy/internal/measure"
)

// CellResult is the engine-owned product of one sweep cell: the
// blocking rate against the sweep victim and the blacklist size. The
// paper experiments fold richer products from the same cells; this
// standard result is what checkpointed runs spill and resume, and what
// the crash-resume goldens compare.
type CellResult struct {
	Cell
	// BlockingRate is the fraction of the victim's netDb addresses on
	// the cell's blacklist (Figure 13's quantity).
	BlockingRate float64
	// BlacklistLen is the number of distinct blacklisted addresses.
	BlacklistLen int
}

// sweepVersion is the Sweep engine's checkpoint-format version; bump it
// when CellResult or the row keying changes.
const sweepVersion = 1

// checkpointManifest identifies this sweep for resume purposes: network
// shape plus the full grid. Workers is excluded — a sweep may resume at
// any width.
func (s *Sweep) checkpointManifest() checkpoint.Manifest {
	h := checkpoint.NewHasher()
	measure.HashNetwork(h, s.Net)
	h.Int(len(s.Cfg.Fleets))
	for _, k := range s.Cfg.Fleets {
		h.Int(k)
	}
	h.Int(len(s.Cfg.Windows))
	for _, w := range s.Cfg.Windows {
		h.Int(w)
	}
	h.Int(len(s.Cfg.Days))
	for _, d := range s.Cfg.Days {
		h.Int(d)
	}
	return checkpoint.Manifest{
		Engine:     "censor.Sweep",
		Version:    sweepVersion,
		ConfigHash: h.Sum(),
		Seed:       s.Cfg.SeedBase,
	}
}

// rowKey names the checkpoint unit holding one completed (window,
// fleet) row by its grid id: cell i belongs to row i % (windows x
// fleets).
func rowKey(row int) string { return fmt.Sprintf("row-%03d", row) }

// Run evaluates the standard result for every cell of the grid,
// returning them in Cells() order. Byte-identical at any Workers value,
// like every engine product.
func (s *Sweep) Run(ctx context.Context) ([]CellResult, error) {
	return s.RunCheckpointed(ctx, "")
}

// RunCheckpointed is Run with crash safety: when dir is non-empty,
// every completed (window, fleet) row spills its results to a
// checkpoint.Store there, and a rerun over the same directory loads
// finished rows instead of recomputing them — a resumed cell builds no
// blacklist. Resuming against state from a different sweep fails with a
// *checkpoint.MismatchError. Interrupted or not, the returned slice is
// byte-identical to an uninterrupted Run at any Workers value: results
// live in cell-indexed slots and JSON round-trips them exactly.
func (s *Sweep) RunCheckpointed(ctx context.Context, dir string) ([]CellResult, error) {
	rows := len(s.Cfg.Windows) * len(s.Cfg.Fleets)
	out := make([]CellResult, len(s.Cfg.Days)*rows)
	units, err := checkpoint.OpenUnits(dir, s.checkpointManifest(), out,
		func(i int) int { return i % rows }, rowKey, "censor.sweep.cell")
	if err != nil {
		return nil, err
	}
	cells := s.Cells()
	err = measure.FanOut(ctx, len(cells), s.Cfg.Workers, func(i int) error {
		if units.Resumed(i) {
			return nil
		}
		bl := s.Blacklist(cells[i])
		return units.Commit(i, CellResult{
			Cell:         cells[i],
			BlockingRate: s.blockingRate(bl, cells[i].Day),
			BlacklistLen: bl.Len(),
		})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
