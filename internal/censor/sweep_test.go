package censor

import (
	"context"
	"fmt"
	"net/netip"
	"reflect"
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

// TestSweepWindowClamped: non-positive windows normalize to one day,
// matching NewCensor's WindowDays clamp (a zero-window eclipse must not
// silently produce an empty blacklist).
func TestSweepWindowClamped(t *testing.T) {
	n := network(t)
	sw, err := NewSweep(n, SweepConfig{Fleets: []int{2}, Windows: []int{0}, Days: []int{10}, SeedBase: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sw.Cells()[0].Window != 1 {
		t.Fatalf("window = %d, want clamped to 1", sw.Cells()[0].Window)
	}
	zero, err := EclipseAttack(n, 6, 0, 25, 20, 77)
	if err != nil {
		t.Fatal(err)
	}
	one, err := EclipseAttack(n, 6, 1, 25, 20, 77)
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
	if err := sw.Each(ctx, func(int, *Cursor) error { return nil }); err != context.Canceled {
		t.Fatalf("Each error = %v, want context.Canceled", err)
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
	victimIPs := victim.KnownAddresses(day)
	for _, w := range windows {
		c, err := NewCensor(n, maxRouters, w, seedBase)
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
				bcfg := DefaultBridgeConfig()
				bcfg.Day = 10
				bcfg.HorizonDays = 8
				bcfg.Workers = workers
				brs, err := EvaluateBridgesContext(ctx, n, 5, bcfg)
				if err != nil {
					t.Fatal(err)
				}
				return brs
			},
		},
	})
}

// TestSweepBlockingRateMatchesBlockingRate: the cell-level rate agrees
// with the public Censor/Victim API.
func TestSweepBlockingRateMatchesBlockingRate(t *testing.T) {
	n := network(t)
	sw, err := NewSweep(n, SweepConfig{Fleets: []int{5}, Windows: []int{7}, Days: []int{20}, SeedBase: 7})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCensor(n, 5, 7, 7)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVictim(n, 7+10_000)
	want := BlockingRate(c, v, 5, 20)
	got := sw.BlockingRate(Cell{Fleet: 5, Window: 7, Day: 20})
	if got != want {
		t.Fatalf("sweep rate %v != BlockingRate %v", got, want)
	}
	series := sw.BlockingSeries(7, 20, 5)
	if len(series) != 5 {
		t.Fatalf("series length %d", len(series))
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

// BenchmarkCensorCapture measures a sweep's capture leg cold: 20
// monitoring routers x 30 days drawn and mapped to address IDs on a
// fresh censor per iteration (the network's index and its day columns
// stay warm, as they do across the sweeps of a study). B/op is what the
// capture keeps: the exactly-sized ID lists.
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
