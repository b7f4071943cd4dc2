package censor

import (
	"context"
	"fmt"
	"sort"

	"github.com/i2pstudy/i2pstudy/internal/measure"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// This file is the adversary sweep engine: the Section 6–7 experiments
// (Figure 13 blocking rates, the eclipse escalation, the bridge-strategy
// survival curves) are declarative grids of (fleet size x blacklist window
// x day) cells over one shared adversary — a censor fleet built once at
// the maximum size, a victim, and the network's address index.
//
// Scheduling is rolling: cells group into (window, fleet) rows with days
// ascending, rows fan out across the same worker pool as
// measure.ObserveGrid (measure.FanRows), and each row slides one
// WindowCounter across its days, paying only for the entering and
// expiring day-slices instead of re-unioning k x window router-days per
// cell. The determinism contract is unchanged: every cell writes into a
// slot indexed by its grid position, observations are deterministic in
// (observer seed, day), the rolling set is byte-identical to the
// from-scratch union at every cell, and folds run in grid order — so any
// Workers value yields byte-identical figures.

// SweepConfig declares an adversary sweep grid.
type SweepConfig struct {
	// Fleets lists the monitoring-fleet sizes the sweep evaluates. The
	// engine builds max(Fleets) observers once; a cell with fleet k uses
	// the first k (observer draws are deterministic per (seed, day), so
	// sharing the fleet across cells never changes a result).
	Fleets []int
	// Windows lists the blacklist time windows in days.
	Windows []int
	// Days lists the evaluation days.
	Days []int
	// SeedBase seeds the fleet: monitoring router i draws from SeedBase+i
	// and the victim from SeedBase+10_000 (the historical layout, so
	// sweeps reproduce the pre-engine experiments bit for bit).
	SeedBase uint64
	// Workers caps engine concurrency: <= 0 selects one worker per CPU,
	// 1 the serial reference path. Results are identical either way.
	Workers int
}

// Cell is one point of the sweep grid.
type Cell struct {
	// Fleet is the number of monitoring routers under censor control.
	Fleet int
	// Window is the blacklist time window in days.
	Window int
	// Day is the evaluation day.
	Day int
}

// Sweep binds a grid to a network with the adversary built once: the
// shared censor fleet, the victim, and the network's address index.
type Sweep struct {
	Net    *sim.Network
	Cfg    SweepConfig
	Censor *Censor
	Victim *Victim
}

// NewSweep validates the grid and builds the shared adversary.
// Non-positive windows are normalized to one day, so a zero-window cell
// blocks what a one-day cell does instead of nothing.
func NewSweep(network *sim.Network, cfg SweepConfig) (*Sweep, error) {
	if len(cfg.Fleets) == 0 || len(cfg.Windows) == 0 || len(cfg.Days) == 0 {
		return nil, fmt.Errorf("censor: sweep needs at least one fleet size, window and day")
	}
	maxFleet := 0
	for _, k := range cfg.Fleets {
		if k > maxFleet {
			maxFleet = k
		}
		if k <= 0 {
			return nil, fmt.Errorf("censor: need at least one monitoring router")
		}
	}
	windows := make([]int, len(cfg.Windows))
	for i, w := range cfg.Windows {
		windows[i] = max(w, 1)
	}
	cfg.Windows = windows
	c, err := newCensor(network, maxFleet, cfg.SeedBase)
	if err != nil {
		return nil, err
	}
	return &Sweep{
		Net:    network,
		Cfg:    cfg,
		Censor: c,
		Victim: NewVictim(network, cfg.SeedBase+10_000),
	}, nil
}

// Cells enumerates the grid in deterministic order: days outermost, then
// windows, then fleets, each in configured order. Each() hands cells to
// workers with their position in this order, so callers can preallocate
// result slots per cell.
func (s *Sweep) Cells() []Cell {
	out := make([]Cell, 0, len(s.Cfg.Days)*len(s.Cfg.Windows)*len(s.Cfg.Fleets))
	for _, day := range s.Cfg.Days {
		for _, w := range s.Cfg.Windows {
			for _, k := range s.Cfg.Fleets {
				out = append(out, Cell{Fleet: k, Window: w, Day: day})
			}
		}
	}
	return out
}

// windowUnionDays returns the sorted union of (day-window, day] over the
// given evaluation days, clipped at study start — the days a sliding
// window of the given width touches.
func windowUnionDays(days []int, window int) []int {
	seen := make(map[int]bool)
	for _, day := range days {
		start := day - window + 1
		if start < 0 {
			start = 0
		}
		for d := start; d <= day; d++ {
			seen[d] = true
		}
	}
	out := make([]int, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// captureDays returns every day any cell's blacklist window reaches back
// to.
func (s *Sweep) captureDays() []int {
	maxWindow := 1
	for _, w := range s.Cfg.Windows {
		if w > maxWindow {
			maxWindow = w
		}
	}
	return windowUnionDays(s.Cfg.Days, maxWindow)
}

// Capture warms every (router, day) capture the sweep's cells will fold,
// through the same worker pool as the measurement campaigns: each
// monitoring router's address IDs (observedIDs — the draw mapped through
// the day's ID column; no sighting list is kept). It is optional — cells
// compute lazily — but without it the first cells on each grid row pay
// for captures serially. The victim's netDb views are not warmed: each
// builds inside the first cell that reads it, under the view memo's once,
// so a sweep whose cells never read the victim never draws it.
func (s *Sweep) Capture(ctx context.Context) error {
	days := s.captureDays()
	routers := s.Censor.Routers()
	// Days outermost: the ticket hands tasks out in index order, so a
	// day's column is built once and then read by every router while hot.
	return measure.FanOut(ctx, len(days)*routers, s.Cfg.Workers, func(t int) error {
		s.Censor.observedIDs(t%routers, days[t/routers])
		return nil
	})
}

// rowPlan groups Cells() indices into rolling rows: one row per
// (window, fleet) pair, days ascending. Cells() enumerates days
// outermost, so cell i belongs to row i % (windows x fleets); sorting a
// row by day (stably — equal days share a blacklist, so order between
// them cannot matter) guarantees its WindowCounter only ever slides
// forward. A plan row is a whole grid row at any Workers value, which
// is what lets RunCheckpointed use the row as its checkpoint unit.
func (s *Sweep) rowPlan(cells []Cell) measure.RowPlan {
	rows := len(s.Cfg.Windows) * len(s.Cfg.Fleets)
	return measure.PlanRows(len(cells), rows,
		func(i int) int { return i % rows },
		func(i int) int { return cells[i].Day })
}

// rowState is one row's rolling blacklist: a WindowCounter covering the
// day range [lo, hi] for the row's fixed (fleet, window).
type rowState struct {
	wc     *WindowCounter
	lo, hi int
}

// advance slides the row's counter to cover (day-window, day] for fleet
// size k. Within a row days only move forward (rowPlan sorts ascending),
// so advancing adds the entering day-slices and removes the expiring
// ones — O(Δ-per-day) instead of the k x window from-scratch union every
// cell used to pay. A gap wider than the window degrades gracefully: the
// disjoint old range expires wholesale before the new one folds in.
func (st *rowState) advance(c *Censor, k, window, day int) {
	lo := day - window + 1
	if lo < 0 {
		lo = 0
	}
	if st.wc == nil {
		st.wc = c.ix.NewWindowCounter()
		st.lo, st.hi = lo, lo-1 // empty: the fill below adds lo..day
	} else if day == st.hi {
		return // duplicate day: same window, nothing slides
	} else if lo > st.hi {
		// No overlap with the current range: expire it entirely.
		for d := st.lo; d <= st.hi; d++ {
			for r := 0; r < k; r++ {
				st.wc.RemoveDay(c.observedIDs(r, d))
			}
		}
		st.lo, st.hi = lo, lo-1
	}
	for d := st.hi + 1; d <= day; d++ {
		for r := 0; r < k; r++ {
			st.wc.AddDay(c.observedIDs(r, d))
		}
	}
	for d := st.lo; d < lo; d++ {
		for r := 0; r < k; r++ {
			st.wc.RemoveDay(c.observedIDs(r, d))
		}
	}
	st.lo, st.hi = lo, day
}

// Cursor is one cell's rolling adversary view, handed to Sweep.Each
// callbacks. Its blacklist is the live set of the row's WindowCounter —
// byte-identical to the from-scratch Sweep.Blacklist of the same cell
// (the golden rolling-equivalence tests enforce this) but built by
// sliding, not re-unioning. The live set is only valid until the
// callback returns; Clone it to keep it past the row.
type Cursor struct {
	s    *Sweep
	cell Cell
	st   *rowState
}

// Cell returns the cursor's grid cell.
func (cu *Cursor) Cell() Cell { return cu.cell }

// counter advances the row to this cell lazily, on first accessor use:
// callbacks that only read coordinates (Figure 13's, which slides its
// own counter along the fleet axis via BlockingSeries) never pay for
// rolling state they don't fold. advance is idempotent per cell —
// within a row days only move forward and a revisited day is a cheap
// bounds check — so repeated accessor calls cost nothing extra, and a
// row whose earlier cells skipped their counters simply slides further
// on the first cell that uses one.
func (cu *Cursor) counter() *WindowCounter {
	cu.st.advance(cu.s.Censor, cu.cell.Fleet, cu.cell.Window, cu.cell.Day)
	return cu.st.wc
}

// Blacklist returns the cell's blacklist as the row's live set. Callers
// must not mutate it or retain it past the callback — the row slides on.
func (cu *Cursor) Blacklist() *AddrSet { return cu.counter().Set() }

// BlockingRate returns the cell's blocking rate against the sweep
// victim, folding the live rolling set against the memoized victim view.
func (cu *Cursor) BlockingRate() float64 {
	vic := cu.s.Victim.addrSet(cu.cell.Day)
	if vic.Len() == 0 {
		return 0
	}
	return float64(cu.counter().Set().IntersectCount(vic)) / float64(vic.Len())
}

// Each evaluates fn for every cell of the grid. Cells are scheduled as
// rolling rows — one (window, fleet) row per worker at a time, days
// ascending, each row sliding one
// WindowCounter across its days (lazily, on first cursor access) — but
// fn still receives the cell's position in Cells() order, so callers
// write results into preallocated slots and the determinism contract of
// measure.ObserveGrid applies unchanged: any Workers value yields
// byte-identical results. The first error (or ctx cancellation) stops
// the remaining cells.
//
// The Cursor handed to fn is only valid until the callback returns: each
// plan row reuses one Cursor across its cells (a row runs sequentially
// on one worker), and the rows' WindowCounters return to the index's
// pool when Each returns. A set kept past the callback must be a Clone.
func (s *Sweep) Each(ctx context.Context, fn func(i int, cu *Cursor) error) error {
	cells := s.Cells()
	plan := s.rowPlan(cells)
	states := make([]rowState, len(plan))
	cursors := make([]Cursor, len(plan))
	err := measure.FanRows(ctx, plan, s.Cfg.Workers, func(row, i int) error {
		cu := &cursors[row]
		cu.s, cu.cell, cu.st = s, cells[i], &states[row]
		return fn(i, cu)
	})
	// FanRows has joined every worker, so no row still touches its state;
	// recycle the counters for the next sweep (or BlockingSeries call).
	for i := range states {
		if states[i].wc != nil {
			s.Censor.ix.ReleaseWindowCounter(states[i].wc)
		}
	}
	return err
}

// Blacklist returns the cell's blacklist as a set over the network's
// address index, built from scratch — the reference the rolling Cursor
// path is tested byte-identical against. Hot grid folds should use
// Each's cursors instead.
func (s *Sweep) Blacklist(cell Cell) *AddrSet {
	return s.Censor.blacklistSet(cell.Fleet, cell.Window, cell.Day)
}

// BlockingRate returns the cell's blocking rate against the sweep victim
// over a from-scratch blacklist (see Blacklist).
func (s *Sweep) BlockingRate(cell Cell) float64 {
	vic := s.Victim.addrSet(cell.Day)
	if vic.Len() == 0 {
		return 0
	}
	bl := s.Blacklist(cell)
	return float64(bl.IntersectCount(vic)) / float64(vic.Len())
}

// BlockingSeries returns the cumulative blocking-rate fractions against
// the sweep victim for fleet prefixes 1..maxFleet at (window, day) — one
// Figure 13 curve. It rides the same rolling substrate as the row
// scheduler, sliding along the fleet axis instead of the day axis: a
// WindowCounter accumulates router k's day-slices on top of routers
// 1..k-1, and each address entering the union checks victim membership
// in O(1), so the whole series costs one pass over each router-day's
// observations instead of a union rebuild per fleet size. maxFleet is
// clamped to the fleet the sweep built, and the window to at least one
// day, as NewSweep clamps the grid's windows.
func (s *Sweep) BlockingSeries(window, day, maxFleet int) []float64 {
	maxFleet = min(maxFleet, s.Censor.Routers())
	window = max(window, 1)
	vic := s.Victim.addrSet(day)
	wc := s.Censor.ix.NewWindowCounter()
	defer s.Censor.ix.ReleaseWindowCounter(wc)
	blocked := 0
	onEnter := func(id int32) {
		if vic.Has(id) {
			blocked++
		}
	}
	start := day - window + 1
	if start < 0 {
		start = 0
	}
	out := make([]float64, 0, max(maxFleet, 0))
	for k := 1; k <= maxFleet; k++ {
		for d := start; d <= day; d++ {
			wc.AddDayFunc(s.Censor.observedIDs(k-1, d), onEnter)
		}
		rate := 0.0
		if vic.Len() > 0 {
			rate = float64(blocked) / float64(vic.Len())
		}
		out = append(out, rate)
	}
	return out
}
