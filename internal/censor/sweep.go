package censor

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"

	"github.com/i2pstudy/i2pstudy/internal/measure"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// This file is the adversary sweep engine: the Section 6–7 experiments
// (Figure 13 blocking rates, the eclipse escalation, the bridge-strategy
// survival curves) are declarative grids of (fleet size x blacklist window
// x day) cells over one shared adversary — a censor fleet built once at
// the maximum size, a victim, and the network's address index.
//
// Cells fan out as measure.FanOut tasks, and each cell unions its own
// router-days from scratch into a fresh AddrSet: the fleet's (router,
// day) address sets and the victim's netDb views are memoized per day,
// so what cells share is computed once, and a cell depends on no other.
// Figure 13 asks only how many of the victim's addresses a blacklist
// holds, so BlockingSeries skips the router-day sets and draws the
// victim's addresses into a recency fold instead. The determinism
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

// CellResult is the engine-owned product of one sweep cell: the
// blocking rate against the sweep victim and the blacklist size. The
// paper experiments fold richer products from the same cells; this
// standard result is what Run returns and what the determinism goldens
// compare.
type CellResult struct {
	Cell
	// BlockingRate is the fraction of the victim's netDb addresses on
	// the cell's blacklist (Figure 13's quantity).
	BlockingRate float64
	// BlacklistLen is the number of distinct blacklisted addresses.
	BlacklistLen int
}

// Sweep binds a grid to a network with the adversary built once: the
// shared censor fleet, the victim, and the network's address index. Its
// cells (Run, BlockingRate, Blacklist) union memoized router-day sets;
// BlockingSeries builds none.
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

// Run evaluates the standard result for every cell of the grid,
// returning them in Cells() order. Each cell is one measure.FanOut task
// that builds its blacklist and writes its cell-indexed slot, so any
// Workers value yields byte-identical results. The first error (or ctx
// cancellation) stops the rest.
func (s *Sweep) Run(ctx context.Context) ([]CellResult, error) {
	cells := s.Cells()
	out := make([]CellResult, len(cells))
	err := measure.FanOut(ctx, len(cells), s.Cfg.Workers, func(i int) error {
		bl := s.Blacklist(cells[i])
		out[i] = CellResult{
			Cell:         cells[i],
			BlockingRate: s.blockingRate(bl, cells[i].Day),
			BlacklistLen: bl.Len(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
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

// Capture warms every (router, day) capture the sweep's cells will union,
// through the same worker pool as the measurement campaigns: each
// monitoring router's address set for the day (observedIDs — the draw
// mapped through the day's ID column into one bit per address; no
// sighting list is kept). It is optional — cells compute lazily — but
// without it each cell draws its own router-days serially, and cells
// sharing one wait on whichever draws it first. The victim's netDb views
// are not warmed: each builds inside the first cell that reads it, under
// the view memo's once, so a sweep whose cells never read the victim
// never draws it. BlockingSeries reads none of these sets, so a Figure
// 13 series needs no Capture.
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

// BlockingSeries returns, for each window in windows and in that
// order, the cumulative blocking-rate fractions against the sweep victim
// for fleet prefixes 1..maxFleet at day — Figure 13's curves. A rate
// counts only the victim's addresses, so no router-day set is built:
// each day of the widest window keeps the day-column entries that carry
// a victim address (victimColumn), and each monitoring router walks the
// days newest first, drawing through DrawDayAt only the entries with a
// victim address it has not yet seen, and records for each address the
// age of the newest day it saw it (routerAges). An address is on the
// k-router, w-day blacklist exactly when one of the first k routers saw
// it less than w days back, so one serial fold over the routers — a
// running minimum age per address and a histogram of those ages — reads
// every prefix k and every window w, with the counts a union of the
// router-days would give. maxFleet is clamped to the fleet the sweep
// built, and each window to at least one day, as NewSweep clamps the
// grid's windows.
func (s *Sweep) BlockingSeries(ctx context.Context, windows []int, day, maxFleet int) ([][]float64, error) {
	maxFleet = min(maxFleet, s.Censor.Routers())
	out := make([][]float64, len(windows))
	for i := range out {
		out[i] = make([]float64, 0, max(maxFleet, 0))
	}
	if maxFleet <= 0 {
		return out, nil
	}
	widest := 1
	for _, w := range windows {
		widest = max(widest, w)
	}
	span := day - max(day-widest+1, 0) + 1 // ages 0..span-1, clipped at day 0
	vic := s.Victim.addrSet(day)
	rank := newAddrRanks(vic)
	cols := make([]victimColumn, span) // by age: cols[a] is day-a's
	err := measure.FanOut(ctx, span, s.Cfg.Workers, func(a int) error {
		cols[a] = rank.column(s.Censor.ix.dayColumn(day - a))
		return nil
	})
	if err != nil {
		return nil, err
	}
	ages := make([][]int32, maxFleet)
	err = measure.FanOut(ctx, maxFleet, s.Cfg.Workers, func(r int) error {
		ages[r] = s.Censor.routerAges(r, day, cols, vic.Len())
		return nil
	})
	if err != nil {
		return nil, err
	}
	newest := unseenAges(vic.Len())
	hist := make([]int, span) // victim addresses by newest age over the prefix
	for r := range maxFleet {
		for i, a := range ages[r] {
			if a < newest[i] {
				if newest[i] != neverSeen {
					hist[newest[i]]--
				}
				hist[a]++
				newest[i] = a
			}
		}
		for i, w := range windows {
			blocked := 0
			for _, n := range hist[:min(max(w, 1), span)] {
				blocked += n
			}
			rate := 0.0
			if vic.Len() > 0 {
				rate = float64(blocked) / float64(vic.Len())
			}
			out[i] = append(out[i], rate)
		}
	}
	return out, nil
}

// neverSeen is the age of an address no router of a fold has seen.
const neverSeen = math.MaxInt32

// unseenAges returns n ages of neverSeen.
func unseenAges(n int) []int32 {
	ages := make([]int32, n)
	for i := range ages {
		ages[i] = neverSeen
	}
	return ages
}

// addrRanks numbers a set's members densely in ascending ID order, from
// a per-word popcount prefix rather than a table as long as the index.
type addrRanks struct {
	set    *AddrSet
	before []int32 // members in the words before each word
}

func newAddrRanks(set *AddrSet) addrRanks {
	r := addrRanks{set: set, before: make([]int32, len(set.words))}
	n := 0
	for i, w := range set.words {
		r.before[i] = int32(n)
		n += bits.OnesCount64(w)
	}
	return r
}

// of returns id's rank among the set's members, -1 when id is not one.
func (r addrRanks) of(id int32) int32 {
	if id < 0 {
		return -1
	}
	w, b := id>>6, uint64(1)<<(id&63)
	if r.set.words[w]&b == 0 {
		return -1
	}
	return r.before[w] + int32(bits.OnesCount64(r.set.words[w]&(b-1)))
}

// victimColumn is the part of a day's ID column that carries a member of
// the ranked set: at[k] is a position in ActivePeers(day), ascending, and
// ranks[k] the set ranks of that peer's v4 and v6, -1 where the address
// is absent or not a member.
type victimColumn struct {
	at    []int32
	ranks [][2]int32
}

// column keeps the entries of col whose v4 or v6 is a member. A first
// pass counts them, so the column is allocated once at its size.
func (r addrRanks) column(col dayColumn) victimColumn {
	n := 0
	for _, e := range col.ids {
		if r.of(e.v4) >= 0 || r.of(e.v6) >= 0 {
			n++
		}
	}
	vc := victimColumn{at: make([]int32, 0, n), ranks: make([][2]int32, 0, n)}
	for k, e := range col.ids {
		r4, r6 := r.of(e.v4), r.of(e.v6)
		if r4 >= 0 || r6 >= 0 {
			vc.at = append(vc.at, col.at[k])
			vc.ranks = append(vc.ranks, [2]int32{r4, r6})
		}
	}
	return vc
}

// routerAges walks one monitoring router's days newest first — cols[a]
// is day-a's victim column — and returns, per victim rank, the age of
// the newest day the router saw the address on, neverSeen where it saw
// it on none. Each day it draws, through DrawDayAt, only the entries
// with a rank it has not yet seen: an entry whose addresses all have an
// age already cannot lower one.
func (c *Censor) routerAges(router, day int, cols []victimColumn, known int) []int32 {
	ages := unseenAges(known)
	unseen := func(r int32) bool { return r >= 0 && ages[r] == neverSeen }
	sc := ageScratchPool.Get().(*ageScratch)
	defer ageScratchPool.Put(sc)
	for a, col := range cols {
		sc.at, sc.entry = sc.at[:0], sc.entry[:0]
		for k, rk := range col.ranks {
			if unseen(rk[0]) || unseen(rk[1]) {
				sc.at = append(sc.at, col.at[k])
				sc.entry = append(sc.entry, int32(k))
			}
		}
		if len(sc.at) == 0 {
			continue
		}
		sc.drawn = c.observers[router].DrawDayAt(day-a, sc.at, sc.drawn[:0])
		for _, k := range sc.drawn {
			for _, r := range col.ranks[sc.entry[k]] {
				if unseen(r) {
					ages[r] = int32(a)
				}
			}
		}
	}
	return ages
}

// ageScratch is routerAges' per-day scratch: the unseen entries'
// positions, their indexes in the victim column, and the indexes into
// at the router keeps. The pool hands each worker its own.
type ageScratch struct{ at, entry, drawn []int32 }

var ageScratchPool = sync.Pool{New: func() any { return new(ageScratch) }}
