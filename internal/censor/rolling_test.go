package censor

import (
	"context"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// cellProbe is everything a rolling cell exposes, captured for exact
// comparison against the from-scratch reference and across worker
// counts: the blacklist bits and cardinality and the blocking rate.
type cellProbe struct {
	Words []uint64
	Count int
	Rate  float64
}

// probeCells runs the sweep grid through the rolling Each path and
// captures a probe per cell.
func probeCells(t testing.TB, sw *Sweep) []cellProbe {
	t.Helper()
	probes := make([]cellProbe, len(sw.Cells()))
	err := sw.Each(context.Background(), func(i int, cu *Cursor) error {
		bl := cu.Blacklist()
		probes[i] = cellProbe{
			Words: append([]uint64(nil), bl.words...),
			Count: bl.Len(),
			Rate:  cu.BlockingRate(),
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return probes
}

// TestRollingSweepMatchesFromScratch is the rolling engine's golden
// equivalence guarantee: across randomized (fleet, window, day) grids —
// unsorted days, duplicates, windows wider than the day gaps and
// narrower — the sliding-window path produces byte-identical blacklists
// and rates to the from-scratch blacklistSet/addrSet reference, at
// Workers 1, 4 and NumCPU. CI runs it under -race, so it
// also proves rows share the victim and observedIDs memos safely.
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
		var serial []cellProbe
		for _, workers := range []int{1, 4, runtime.NumCPU()} {
			cfg.Workers = workers
			sw, err := NewSweep(n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			probes := probeCells(t, sw)
			if workers == 1 {
				serial = probes
				// The serial pass also checks every cell against the
				// from-scratch reference: blacklistSet for the union,
				// referenceAddrSet for the (unmemoized) victim view.
				for i, cell := range sw.Cells() {
					ref := sw.Censor.blacklistSet(cell.Fleet, cell.Window, cell.Day)
					if !reflect.DeepEqual(probes[i].Words, ref.words) || probes[i].Count != ref.Len() {
						t.Fatalf("trial %d cell %d %+v: rolling blacklist differs from from-scratch union",
							trial, i, cell)
					}
					vic := referenceAddrSet(sw.Victim, cell.Day)
					wantRate := 0.0
					if vic.Len() > 0 {
						wantRate = float64(ref.IntersectCount(vic)) / float64(vic.Len())
					}
					if probes[i].Rate != wantRate {
						t.Fatalf("trial %d cell %d %+v: rolling rate %v, from-scratch %v",
							trial, i, cell, probes[i].Rate, wantRate)
					}
				}
			} else if !reflect.DeepEqual(probes, serial) {
				t.Fatalf("trial %d Workers=%d: rolling probes differ from serial", trial, workers)
			}
		}
	}
}

// TestRollingBlacklistAtEquivalence: the address map the from-scratch
// blacklistSet materializes agrees with each rolling cell's set.
func TestRollingBlacklistAtEquivalence(t *testing.T) {
	n := network(t)
	sw, err := NewSweep(n, SweepConfig{Fleets: []int{4}, Windows: []int{6}, Days: []int{12, 15, 20}, SeedBase: 31})
	if err != nil {
		t.Fatal(err)
	}
	err = sw.Each(context.Background(), func(i int, cu *Cursor) error {
		cell := cu.Cell()
		c := sw.Censor
		want := addrMap(c.ix, cu.Blacklist())
		got := blacklistMap(c, cell.Fleet, cell.Window, cell.Day)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("cell %+v: rolling map view differs from from-scratch", cell)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestVictimViewsMemoized: the per-day netDb view is built once and
// shared — a revisit returns the same set and the same slice.
func TestVictimViewsMemoized(t *testing.T) {
	v := NewVictim(network(t), 424)
	day := 17
	set, peers := v.addrSet(day), v.KnownPeers(day)
	if len(peers) == 0 {
		t.Fatal("victim knows nothing")
	}
	if v.addrSet(day) != set {
		t.Fatal("addrSet not memoized")
	}
	if got := v.KnownPeers(day); &got[0] != &peers[0] || len(got) != len(peers) {
		t.Fatal("KnownPeers not memoized")
	}
}

// --- the rolling perf trajectory ---

// rollingBenchGrid builds the acceptance grid — 30 days x 4 windows x 4
// fleets — on a dedicated network, with captures and observed-ID slices
// warmed so the pair measures blacklist folding, not observation draws.
// In -short mode (CI's bench smoke) the network shrinks but every code
// path still runs.
func rollingBenchGrid(b *testing.B, workers int) *Sweep {
	peers := 3050
	if testing.Short() {
		peers = 800
	}
	n, err := sim.New(sim.Config{Seed: 7, Days: 40, TargetDailyPeers: peers})
	if err != nil {
		b.Fatal(err)
	}
	days := make([]int, 30)
	for i := range days {
		days[i] = 5 + i
	}
	sw, err := NewSweep(n, SweepConfig{
		Fleets:   []int{2, 4, 8, 16},
		Windows:  []int{1, 5, 10, 20},
		Days:     days,
		SeedBase: 700,
		Workers:  workers,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := sw.Capture(context.Background()); err != nil {
		b.Fatal(err)
	}
	for r := 0; r < sw.Censor.Routers(); r++ {
		for _, d := range sw.captureDays() {
			sw.Censor.observedIDs(r, d)
		}
	}
	return sw
}

// benchmarkSweepRolling measures the rolling-window engine folding one
// blocking rate per cell across the acceptance grid.
func benchmarkSweepRolling(b *testing.B, workers int) {
	sw := rollingBenchGrid(b, workers)
	rates := make([]float64, len(sw.Cells()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := sw.Each(context.Background(), func(i int, cu *Cursor) error {
			rates[i] = cu.BlockingRate()
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if rates[len(rates)-1] == 0 {
		b.Fatal("strongest cell blocked nothing")
	}
}

// BenchmarkSweepRollingSerial / Parallel are the rolling-engine perf
// pair, alongside BenchmarkSweepFromScratchSerial — the pre-rolling reference
// that re-unions k x window router-day slices into a fresh set and
// rebuilds the victim's netDb view per cell, exactly what every cell
// paid before the rolling engine. rolling-vs-scratch serial is the
// acceptance ratio (target >= 2x); rolling serial-vs-parallel is the
// usual engine scaling number.
func BenchmarkSweepRollingSerial(b *testing.B)   { benchmarkSweepRolling(b, 1) }
func BenchmarkSweepRollingParallel(b *testing.B) { benchmarkSweepRolling(b, 0) }

func BenchmarkSweepFromScratchSerial(b *testing.B) {
	sw := rollingBenchGrid(b, 1)
	cells := sw.Cells()
	rates := make([]float64, len(cells))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, cell := range cells {
			vic := referenceAddrSet(sw.Victim, cell.Day)
			bl := sw.Censor.blacklistSet(cell.Fleet, cell.Window, cell.Day)
			rates[j] = 0
			if vic.Len() > 0 {
				rates[j] = float64(bl.IntersectCount(vic)) / float64(vic.Len())
			}
		}
	}
	b.StopTimer()
	if rates[len(rates)-1] == 0 {
		b.Fatal("strongest cell blocked nothing")
	}
}
