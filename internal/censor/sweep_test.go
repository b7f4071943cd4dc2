package censor

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/bits"
	"math/rand/v2"
	"net/netip"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/measure/enginetest"
	"github.com/i2pstudy/i2pstudy/internal/sim"
	"github.com/i2pstudy/i2pstudy/internal/stats"
)

func TestNewSweepValidation(t *testing.T) {
	n := network(t)
	bad := []SweepConfig{
		{},
		{Fleets: []int{2}, Windows: []int{1}},
		{Fleets: []int{2}, Days: []int{5}},
		{Windows: []int{1}, Days: []int{5}},
		{Fleets: []int{2, 0}, Windows: []int{1}, Days: []int{5}},
		// A day outside the study draws nothing: every cell would be
		// silently empty.
		{Fleets: []int{2}, Windows: []int{1}, Days: []int{5, -1}},
		{Fleets: []int{2}, Windows: []int{1}, Days: []int{n.Days()}},
	}
	for i, cfg := range bad {
		if _, err := NewSweep(n, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	sw, err := NewSweep(n, SweepConfig{Fleets: []int{3, 8}, Windows: []int{1, 5}, Days: []int{10, 20}, SeedBase: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sw.Censor.Routers() != 8 {
		t.Fatalf("fleet built at %d routers, want max fleet 8", sw.Censor.Routers())
	}
	cells := sw.Cells()
	if len(cells) != 8 {
		t.Fatalf("grid has %d cells, want 8", len(cells))
	}
	// Days outermost, then windows, then fleets.
	want := Cell{Fleet: 3, Window: 1, Day: 10}
	if cells[0] != want {
		t.Fatalf("cells[0] = %+v, want %+v", cells[0], want)
	}
	if cells[7] != (Cell{Fleet: 8, Window: 5, Day: 20}) {
		t.Fatalf("cells[7] = %+v", cells[7])
	}
}

// TestSweepWindowClamped: non-positive windows normalize to one day (a
// zero-window eclipse must not silently produce an empty blacklist).
func TestSweepWindowClamped(t *testing.T) {
	n := network(t)
	sw, err := NewSweep(n, SweepConfig{Fleets: []int{2}, Windows: []int{0}, Days: []int{10}, SeedBase: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sw.Cells()[0].Window != 1 {
		t.Fatalf("window = %d, want clamped to 1", sw.Cells()[0].Window)
	}
	_, zero, err := EclipseSweepContext(context.Background(), n, []int{6}, 0, 25, 20, 77, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, one, err := EclipseSweepContext(context.Background(), n, []int{6}, 1, 25, 20, 77, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(zero, one) {
		t.Fatalf("zero-window eclipse %+v differs from one-day window %+v", zero, one)
	}
}

func TestSweepCaptureCancelled(t *testing.T) {
	n := network(t)
	sw, err := NewSweep(n, SweepConfig{Fleets: []int{2}, Windows: []int{3}, Days: []int{10}, SeedBase: 999})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sw.Capture(ctx); err != context.Canceled {
		t.Fatalf("Capture error = %v, want context.Canceled", err)
	}
	if _, err := sw.Run(ctx); err != context.Canceled {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
}

// referenceFigure13 is the pre-engine Figure 13 implementation, kept as
// the test oracle: a fresh censor fleet per window, map-based blacklists
// grown per fleet size, victim addresses from the materialized map.
func referenceFigure13(t *testing.T, n *sim.Network, maxRouters int, windows []int, day int, seedBase uint64) *stats.Figure {
	t.Helper()
	fig := &stats.Figure{
		Title:  "Figure 13: Blocking rates under different blacklist time windows",
		XLabel: "routers under censor control",
		YLabel: "blocking rate (%)",
	}
	victim := NewVictim(n, seedBase+10_000)
	victimIPs := knownAddressMap(victim, day)
	for _, w := range windows {
		c, err := newCensor(n, maxRouters, seedBase)
		if err != nil {
			t.Fatal(err)
		}
		s := fig.AddSeries(fmt.Sprintf("%d day", w))
		start := day - w + 1
		if start < 0 {
			start = 0
		}
		bl := make(map[netip.Addr]bool)
		for k := 1; k <= maxRouters; k++ {
			for d := start; d <= day; d++ {
				for _, idx := range c.observers[k-1].ObserveDay(d) {
					p := n.Peers[idx]
					v4, v6 := p.AddrOnDay(d)
					if p.Status == sim.StatusKnownIP && v4.IsValid() {
						bl[v4] = true
						if v6.IsValid() {
							bl[v6] = true
						}
					}
				}
			}
			blocked := 0
			for ip := range victimIPs {
				if bl[ip] {
					blocked++
				}
			}
			rate := 0.0
			if len(victimIPs) > 0 {
				rate = float64(blocked) / float64(len(victimIPs))
			}
			s.Append(float64(k), 100*rate)
		}
	}
	return fig
}

// TestFigure13MatchesReference is the refactor's before/after guarantee:
// the sweep-engine Figure 13 renders byte-identically to the historical
// map-based serial implementation.
func TestFigure13MatchesReference(t *testing.T) {
	n := network(t)
	windows := []int{1, 5, 10}
	ref := referenceFigure13(t, n, 8, windows, 20, 700)
	got, err := Figure13Context(context.Background(), n, 8, windows, 20, 700, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatal("engine Figure 13 differs from the map-based reference")
	}
	if got.Render() != ref.Render() {
		t.Fatal("rendered Figure 13 differs from the reference")
	}
}

// TestRollingSweepMatchesFromScratch holds the one blacklist path to the
// map-based references across randomized (fleet, window, day) grids —
// unsorted days, duplicates, windows wider than the day gaps and
// narrower: every cell's Blacklist is the address union built the long
// way, and Run's BlacklistLen and BlockingRate agree with it and with
// the victim's netDb built the long way (referenceAddrSet). Run at
// Workers 4 and NumCPU equals Run at 1. CI runs it under -race, so it
// also proves concurrent cells share the observedIDs and victim memos
// safely. (The name is kept from the rolling-window engine these grids
// were first held against; every cell is now built from scratch.)
func TestRollingSweepMatchesFromScratch(t *testing.T) {
	n := network(t)
	rng := rand.New(rand.NewPCG(7, 2026))
	randomVals := func(count, lo, hi int) []int {
		out := make([]int, count)
		for i := range out {
			out[i] = lo + rng.IntN(hi-lo+1)
		}
		return out
	}
	for trial := 0; trial < 3; trial++ {
		cfg := SweepConfig{
			Fleets:   randomVals(1+rng.IntN(3), 1, 8),
			Windows:  randomVals(1+rng.IntN(3), 1, 12),
			Days:     randomVals(3+rng.IntN(4), 0, n.Days()-1), // unsorted, dups possible
			SeedBase: 7000 + uint64(trial),
		}
		var serial []CellResult
		for _, workers := range []int{1, 4, runtime.NumCPU()} {
			cfg.Workers = workers
			sw, err := NewSweep(n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sw.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if workers != 1 {
				if !reflect.DeepEqual(res, serial) {
					t.Fatalf("trial %d Workers=%d: results differ from serial", trial, workers)
				}
				continue
			}
			serial = res
			ref := referenceBlacklists(sw.Censor)
			for i, cell := range sw.Cells() {
				want := ref(cell.Fleet, cell.Window, cell.Day)
				if !maps.Equal(addrMap(sw.Censor.ix, sw.Blacklist(cell)), want) {
					t.Fatalf("trial %d cell %d %+v: blacklist differs from the map reference", trial, i, cell)
				}
				if res[i].Cell != cell || res[i].BlacklistLen != len(want) {
					t.Fatalf("trial %d cell %d %+v: result %+v, want blacklist length %d",
						trial, i, cell, res[i], len(want))
				}
				vic := addrMap(sw.Victim.ix, referenceAddrSet(sw.Victim, cell.Day))
				blocked := 0
				for a := range vic {
					if want[a] {
						blocked++
					}
				}
				wantRate := 0.0
				if len(vic) > 0 {
					wantRate = float64(blocked) / float64(len(vic))
				}
				if res[i].BlockingRate != wantRate {
					t.Fatalf("trial %d cell %d %+v: rate %v, map reference %v",
						trial, i, cell, res[i].BlockingRate, wantRate)
				}
			}
		}
	}
}

// TestRollingBlacklistAtEquivalence: on a fixed grid, each cell's
// Sweep.Blacklist materializes to the same address map as the censor's
// blacklistMap view and as the map-based referenceBlacklists union.
func TestRollingBlacklistAtEquivalence(t *testing.T) {
	n := network(t)
	sw, err := NewSweep(n, SweepConfig{Fleets: []int{4}, Windows: []int{6}, Days: []int{12, 15, 20}, SeedBase: 31})
	if err != nil {
		t.Fatal(err)
	}
	c := sw.Censor
	ref := referenceBlacklists(c)
	for _, cell := range sw.Cells() {
		got := addrMap(c.ix, sw.Blacklist(cell))
		if len(got) == 0 {
			t.Fatalf("cell %+v: empty blacklist", cell)
		}
		if !reflect.DeepEqual(got, blacklistMap(c, cell.Fleet, cell.Window, cell.Day)) {
			t.Errorf("cell %+v: Sweep.Blacklist map view differs from blacklistMap", cell)
		}
		if !maps.Equal(got, ref(cell.Fleet, cell.Window, cell.Day)) {
			t.Errorf("cell %+v: Sweep.Blacklist differs from the map reference", cell)
		}
	}
}

// TestSweepWorkerDeterminism is the adversary engine's golden equivalence
// guarantee, stated through the shared enginetest harness: any Workers
// value yields byte-identical figures for the blocking, eclipse and
// bridge sweeps.
func TestSweepWorkerDeterminism(t *testing.T) {
	n := network(t)
	ctx := context.Background()
	day := 20

	enginetest.Golden(t, []enginetest.Case{
		{
			Name: "figure-13",
			Run: func(t testing.TB, workers int) any {
				fig, err := Figure13Context(ctx, n, 8, []int{1, 5}, day, 700, workers)
				if err != nil {
					t.Fatal(err)
				}
				// The rendered text participates in the comparison too:
				// a figure that deep-equals but renders differently
				// would still corrupt the artifact.
				return []any{fig, fig.Render()}
			},
		},
		{
			Name: "eclipse",
			Run: func(t testing.TB, workers int) any {
				efig, ecl, err := EclipseSweepContext(ctx, n, []int{2, 6}, 5, 25, day, 7200, workers)
				if err != nil {
					t.Fatal(err)
				}
				return []any{efig, ecl}
			},
		},
		{
			Name: "bridges",
			Run: func(t testing.TB, workers int) any {
				brs, err := EvaluateBridgesContext(ctx, n, 5, 10, workers)
				if err != nil {
					t.Fatal(err)
				}
				return brs
			},
		},
	})
}

// TestSweepBlockingRateMatchesBlockingRate: the Figure 13 series, grown
// over fleet prefixes, ends on the cell's blocking rate and never
// decreases.
func TestSweepBlockingRateMatchesBlockingRate(t *testing.T) {
	n := network(t)
	sw, err := NewSweep(n, SweepConfig{Fleets: []int{5}, Windows: []int{7}, Days: []int{20}, SeedBase: 7})
	if err != nil {
		t.Fatal(err)
	}
	want := sw.BlockingRate(Cell{Fleet: 5, Window: 7, Day: 20})
	all, err := sw.BlockingSeries(context.Background(), []int{7}, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	series := all[0]
	if len(all) != 1 || len(series) != 5 {
		t.Fatalf("%d series, the first of length %d", len(all), len(series))
	}
	if series[4] != want {
		t.Fatalf("series[4] = %v, want %v", series[4], want)
	}
	for i := 1; i < len(series); i++ {
		if series[i] < series[i-1] {
			t.Fatalf("cumulative series decreased at %d: %v", i, series)
		}
	}
}

// TestBlockingSeriesClamped: a series asked past the fleet the sweep
// built stops at that fleet, a non-positive window is one day, as
// NewSweep clamps the grid's windows, a negative fleet gives empty
// series, and the series come back in the order the windows were given.
func TestBlockingSeriesClamped(t *testing.T) {
	n := network(t)
	sw, err := NewSweep(n, SweepConfig{Fleets: []int{3}, Windows: []int{1}, Days: []int{20}, SeedBase: 7})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	series := func(windows []int, maxFleet int) [][]float64 {
		t.Helper()
		out, err := sw.BlockingSeries(ctx, windows, 20, maxFleet)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(windows) {
			t.Fatalf("%d series for %d windows", len(out), len(windows))
		}
		return out
	}
	want := series([]int{1}, 3)[0]
	wide := series([]int{4}, 3)[0]
	if got := series([]int{1}, 8)[0]; !reflect.DeepEqual(got, want) {
		t.Fatalf("series past the fleet = %v, want %v", got, want)
	}
	got := series([]int{0, 4, -2, 1}, 3)
	if want := [][]float64{want, wide, want, want}; !reflect.DeepEqual(got, want) {
		t.Fatalf("series for windows 0, 4, -2, 1 = %v, want %v", got, want)
	}
	for _, got := range series([]int{1, 5}, -1) {
		if len(got) != 0 {
			t.Fatalf("negative fleet series = %v, want empty", got)
		}
	}
	if got := series(nil, 3); len(got) != 0 {
		t.Fatalf("no windows gave %v", got)
	}
}

// referenceBlockingSeries is BlockingSeries before router-days became
// sets, kept as its reference: one set grows along the fleet axis from
// each router-day's ID list (referenceObservedIDs), and every ID the
// union gains checks victim membership on its own.
func referenceBlockingSeries(sw *Sweep, window, day, maxFleet int) []float64 {
	maxFleet = min(maxFleet, sw.Censor.Routers())
	start := max(day-max(window, 1)+1, 0)
	vic := sw.Victim.addrSet(day)
	set := sw.Censor.ix.NewSet()
	blocked := 0
	out := make([]float64, 0, max(maxFleet, 0))
	for k := 1; k <= maxFleet; k++ {
		for d := start; d <= day; d++ {
			for _, id := range referenceObservedIDs(sw.Censor, k-1, d) {
				if set.Add(id) && vic.Has(id) {
					blocked++
				}
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

// referenceWordSeries is BlockingSeries before the recency fold, kept as
// a second reference: one union grows along the fleet axis over the
// memoized router-day sets (observedIDs), router k's words joining the
// union of routers 1..k-1 a 64-bit word at a time, and the bits a word
// gains are counted against the victim's word.
func referenceWordSeries(sw *Sweep, window, day, maxFleet int) []float64 {
	maxFleet = min(maxFleet, sw.Censor.Routers())
	start := max(day-max(window, 1)+1, 0)
	vic := sw.Victim.addrSet(day)
	union := make([]uint64, len(vic.words))
	blocked := 0
	out := make([]float64, 0, max(maxFleet, 0))
	for k := 1; k <= maxFleet; k++ {
		for d := start; d <= day; d++ {
			for i, w := range sw.Censor.observedIDs(k-1, d).words {
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

// sameSeries fails t unless got holds one series per window, each
// bit-equal to what ref gives for that window.
func sameSeries(t *testing.T, name string, got [][]float64, windows []int, ref func(window int) []float64) {
	t.Helper()
	if len(got) != len(windows) {
		t.Fatalf("%s: %d series for %d windows", name, len(got), len(windows))
	}
	for i, window := range windows {
		want := ref(window)
		if len(got[i]) != len(want) {
			t.Fatalf("%s: window %d: %d rates, the reference gives %d", name, window, len(got[i]), len(want))
		}
		for k := range want {
			if math.Float64bits(got[i][k]) != math.Float64bits(want[k]) {
				t.Fatalf("%s: window %d fleet %d: rate %v, the reference gives %v", name, window, k+1, got[i][k], want[k])
			}
		}
	}
}

// TestBlockingSeriesMatchesReference: every rate of the recency fold is
// bit-equal to the per-ID reference's and to the word-parallel one's,
// over windows and days on the test network and at both bench seeds —
// all windows in one call, one of them wider than the day — and on
// Figure 13's own cell: 20 routers, its five windows, day Days-5.
func TestBlockingSeriesMatchesReference(t *testing.T) {
	ctx := context.Background()
	for name, n := range seedNetworks(t) {
		type cell struct {
			fleet, day int
			windows    []int
		}
		var cells []cell
		for _, day := range []int{0, 3, 20, n.Days() - 1} {
			cells = append(cells, cell{8, day, []int{0, 1, 5, 30, day + 2}})
		}
		cells = append(cells, cell{20, n.Days() - 5, []int{1, 5, 10, 20, 30}})
		for _, c := range cells {
			sw, err := NewSweep(n, SweepConfig{Fleets: []int{c.fleet}, Windows: []int{1}, Days: []int{0}, SeedBase: 700})
			if err != nil {
				t.Fatal(err)
			}
			got, err := sw.BlockingSeries(ctx, c.windows, c.day, c.fleet)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s: %d routers day %d", name, c.fleet, c.day)
			sameSeries(t, label+" (per-ID reference)", got, c.windows, func(w int) []float64 {
				return referenceBlockingSeries(sw, w, c.day, c.fleet)
			})
			sameSeries(t, label+" (word reference)", got, c.windows, func(w int) []float64 {
				return referenceWordSeries(sw, w, c.day, c.fleet)
			})
		}
	}
}

// TestBlockingSeriesFoldMatchesMapOracle runs the recency fold against
// random victim netDbs planted in the view memo — empty, sparse, dense,
// and IDs in the index's last word — and holds every window's series to
// a map union over the router-days' reference ID lists
// (referenceObservedIDs) intersected with the planted victim.
func TestBlockingSeriesFoldMatchesMapOracle(t *testing.T) {
	n := network(t)
	ix := IndexFor(n)
	size := ix.NumAddrs()
	rng := rand.New(rand.NewPCG(36, 13))
	random := func(members int) []int32 {
		ids := make([]int32, members)
		for i := range ids {
			ids[i] = int32(rng.IntN(size))
			if i%7 == 0 {
				ids[i] = int32(size - 1 - rng.IntN(min(size, 64)))
			}
		}
		return ids
	}
	const fleet = 5
	windows := []int{1, 3, 8}
	victims := map[int][]int32{ // by evaluation day
		20: random(size / 3),
		21: nil,
		22: random(10),
		23: random(size),
	}
	for day, victim := range victims {
		sw, err := NewSweep(n, SweepConfig{Fleets: []int{fleet}, Windows: []int{1}, Days: []int{day}, SeedBase: 1})
		if err != nil {
			t.Fatal(err)
		}
		set := ix.NewSet()
		known := map[int32]bool{}
		for _, id := range victim {
			set.Add(id)
			known[id] = true
		}
		sw.Victim.views.Get(day, func(int) *netDbView { return &netDbView{addrs: set} })

		got, err := sw.BlockingSeries(context.Background(), windows, day, fleet)
		if err != nil {
			t.Fatal(err)
		}
		sameSeries(t, fmt.Sprintf("day %d, %d known", day, len(known)), got, windows, func(window int) []float64 {
			union := map[int32]bool{}
			want := make([]float64, 0, fleet)
			for r := range fleet {
				for d := max(day-window+1, 0); d <= day; d++ {
					for _, id := range referenceObservedIDs(sw.Censor, r, d) {
						union[id] = true
					}
				}
				blocked := 0
				for id := range known {
					if union[id] {
						blocked++
					}
				}
				rate := 0.0
				if len(known) > 0 {
					rate = float64(blocked) / float64(len(known))
				}
				want = append(want, rate)
			}
			return want
		})
	}
}

// TestBlacklistOwnsItsSet: a cell's blacklist shares no words with the
// memoized router-days it unions or with the cell's next blacklist —
// including a one-router, one-day cell, whose blacklist is exactly one
// memoized set. Turning every bit of one blacklist over changes neither.
func TestBlacklistOwnsItsSet(t *testing.T) {
	n := network(t)
	ix := IndexFor(n)
	sw, err := NewSweep(n, SweepConfig{Fleets: []int{1, 3}, Windows: []int{1, 4}, Days: []int{20}, SeedBase: 5})
	if err != nil {
		t.Fatal(err)
	}
	type snapshot struct {
		words []uint64
		len   int
	}
	snap := func(s *AddrSet) snapshot { return snapshot{slices.Clone(s.words), s.Len()} }
	memos := map[[2]int]snapshot{}
	for r := 0; r < sw.Censor.Routers(); r++ {
		for d := 17; d <= 20; d++ {
			rd := sw.Censor.observedIDs(r, d)
			memos[[2]int{r, d}] = snap(&rd)
		}
	}
	for _, cell := range sw.Cells() {
		bl := sw.Blacklist(cell)
		want := snap(bl)
		for id := range int32(ix.NumAddrs()) {
			if !bl.Remove(id) {
				bl.Add(id)
			}
		}
		if next := sw.Blacklist(cell); !reflect.DeepEqual(snap(next), want) {
			t.Fatalf("cell %+v: the next blacklist moved with a mutated one", cell)
		}
		for key, want := range memos {
			rd := sw.Censor.observedIDs(key[0], key[1])
			if !reflect.DeepEqual(snap(&rd), want) {
				t.Fatalf("cell %+v: router %d's day %d moved with a mutated blacklist", cell, key[0], key[1])
			}
		}
	}
}

// BenchmarkFigure13SweepSerial / Parallel are the adversary-engine perf
// pair. Each
// iteration rebuilds the sweep (fresh observers, cold capture memos), so
// the numbers measure real capture + fold work at each width.
func benchmarkFigure13Sweep(b *testing.B, workers int) {
	n, err := sim.New(sim.Config{Seed: 7, Days: 40, TargetDailyPeers: 3050})
	if err != nil {
		b.Fatal(err)
	}
	IndexFor(n) // the shared index is built once per network; exclude it
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := Figure13Context(context.Background(), n, 20, []int{1, 5, 10, 20, 30}, 35, 700, workers)
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Series) != 5 {
			b.Fatal("wrong series count")
		}
	}
}

func BenchmarkFigure13SweepSerial(b *testing.B)   { benchmarkFigure13Sweep(b, 1) }
func BenchmarkFigure13SweepParallel(b *testing.B) { benchmarkFigure13Sweep(b, 0) }

// BenchmarkDrawDay measures the draw kernel alone: one monitoring
// router's day over the active peers, into a warm out — no allocation,
// and ns/peer is the cost of one draw, kept or not.
func BenchmarkDrawDay(b *testing.B) {
	n := network(b)
	o := n.NewObserver(sim.ObserverConfig{Floodfill: true, SharedKBps: sim.MaxSharedKBps, Seed: 700})
	out := make([]int32, 0, len(n.Peers))
	peers := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		day := i % n.Days()
		out = o.DrawDay(day, out[:0])
		peers += len(n.ActivePeers(day))
	}
	b.StopTimer()
	if len(out) == 0 {
		b.Fatal("router saw nothing")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(peers), "ns/peer")
}

// BenchmarkDrawDayAt measures the draw a monitoring router makes: one
// router's day over its addressed column only, the generator jumping the
// positions between, into a warm out. ns/peer is over all the day's
// active peers, as in BenchmarkDrawDay, so the two compare directly;
// addressed is the share of active peers the column holds.
func BenchmarkDrawDayAt(b *testing.B) {
	n := network(b)
	ix := IndexFor(n)
	o := n.NewObserver(sim.ObserverConfig{Floodfill: true, SharedKBps: sim.MaxSharedKBps, Seed: 700})
	for day := range n.Days() {
		ix.dayColumn(day) // the columns are the network's, built once
	}
	out := make([]int32, 0, len(n.Peers))
	peers, addressed := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		day := i % n.Days()
		col := ix.dayColumn(day)
		out = o.DrawDayAt(day, col.at, out[:0])
		peers += len(n.ActivePeers(day))
		addressed += len(col.at)
	}
	b.StopTimer()
	if len(out) == 0 {
		b.Fatal("router saw nothing")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(peers), "ns/peer")
	b.ReportMetric(float64(addressed)/float64(peers), "addressed")
}

// BenchmarkCensorCapture measures a sweep's capture leg cold: 20
// monitoring routers x 30 days, each router-day drawn over the day's
// addressed column and its kept IDs set, on a fresh censor per iteration
// (the network's index and its day columns stay warm, as they do across
// the sweeps of a study). B/op is what the capture keeps: one
// index-sized AddrSet per router-day, NumAddrs/8 bytes each.
func BenchmarkCensorCapture(b *testing.B) {
	n := network(b)
	cfg := SweepConfig{Fleets: []int{20}, Windows: []int{30}, Days: []int{35}, SeedBase: 700, Workers: 1}
	capture := func() {
		sw, err := NewSweep(n, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := sw.Capture(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	capture() // builds what the network owns: the index and its day columns
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		capture()
	}
}
