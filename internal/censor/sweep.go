package censor

import (
	"context"
	"fmt"
	"math/bits"
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
// Cells fan out across the same worker pool as measure.ObserveGrid
// (measure.FanOut), and each cell unions its own router-days from
// scratch into a fresh AddrSet: the fleet's (router, day) address sets
// and the victim's netDb views are memoized per day, so what cells share
// is computed once, and a cell depends on no other. The determinism
// contract: every cell writes into a slot indexed by its grid position,
// observations are deterministic in (observer seed, day), and folds run
// in grid order — so any Workers value yields byte-identical figures.

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

// NewSweep validates the grid and builds the shared adversary. Every
// evaluation day must lie in the study: a day past it draws nothing, so
// its cells would be silently empty. Non-positive windows are normalized
// to one day, so a zero-window cell blocks what a one-day cell does
// instead of nothing.
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
	for _, day := range cfg.Days {
		if day < 0 || day >= network.Days() {
			return nil, fmt.Errorf("censor: sweep day %d outside the study's days [0, %d)", day, network.Days())
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
// windows, then fleets, each in configured order. Callers fan cells out
// by their position in this order (measure.FanOut) and write each
// result into that cell's preallocated slot.
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
// monitoring router's address set for the day (observedIDs — the draw
// mapped through the day's ID column into one bit per address; no
// sighting list is kept). It is optional — cells compute lazily — but
// without it each cell draws its own router-days serially, and cells
// sharing one wait on whichever draws it first. The victim's netDb views
// are not warmed: each builds inside the first cell that reads it, under
// the view memo's once, so a sweep whose cells never read the victim
// never draws it.
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

// Blacklist returns the cell's blacklist: the union of the addresses
// the first Fleet monitoring routers observed over (Day-Window, Day], as
// a fresh set over the network's address index. It is the one way a
// blacklist is built; the caller owns the set.
func (s *Sweep) Blacklist(cell Cell) *AddrSet {
	return s.Censor.blacklistSet(cell.Fleet, cell.Window, cell.Day)
}

// BlockingRate returns the cell's blocking rate against the sweep victim.
func (s *Sweep) BlockingRate(cell Cell) float64 {
	return s.blockingRate(s.Blacklist(cell), cell.Day)
}

// blockingRate returns the fraction of the victim's netDb addresses on
// day that the blacklist bl holds.
func (s *Sweep) blockingRate(bl *AddrSet, day int) float64 {
	vic := s.Victim.addrSet(day)
	if vic.Len() == 0 {
		return 0
	}
	return float64(bl.IntersectCount(vic)) / float64(vic.Len())
}

// BlockingSeries returns the cumulative blocking-rate fractions against
// the sweep victim for fleet prefixes 1..maxFleet at (window, day) — one
// Figure 13 curve. One union grows along the fleet axis: router k's
// router-days join the union of routers 1..k-1 a 64-bit word at a time,
// and the bits a word gains are counted against the victim's word, so
// the whole series costs one pass over each router-day's words instead
// of a union rebuild per fleet size. maxFleet is clamped to the fleet
// the sweep built, and the window to at least one day, as NewSweep
// clamps the grid's windows.
func (s *Sweep) BlockingSeries(window, day, maxFleet int) []float64 {
	maxFleet = min(maxFleet, s.Censor.Routers())
	start := max(day-max(window, 1)+1, 0)
	vic := s.Victim.addrSet(day)
	union := make([]uint64, len(vic.words))
	blocked := 0
	out := make([]float64, 0, max(maxFleet, 0))
	for k := 1; k <= maxFleet; k++ {
		for d := start; d <= day; d++ {
			for i, w := range s.Censor.observedIDs(k-1, d).words {
				nw := w &^ union[i]
				union[i] |= nw
				blocked += bits.OnesCount64(nw & vic.words[i])
			}
		}
		rate := 0.0
		if vic.Len() > 0 {
			rate = float64(blocked) / float64(vic.Len())
		}
		out = append(out, rate)
	}
	return out
}
