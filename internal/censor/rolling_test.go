package censor

import (
	"context"
	"math/rand/v2"
	"net/netip"
	"reflect"
	"runtime"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// cellProbe is everything a rolling cell exposes, captured for exact
// comparison against the from-scratch reference and across worker
// counts: the blacklist bits and cardinality, the blocking rate, and a
// sample of the snapshot predicate.
type cellProbe struct {
	Words   []uint64
	Count   int
	Rate    float64
	Blocked []bool
}

// probeCells runs the sweep grid through the rolling Each path and
// captures a probe per cell. samples are the peer indexes the snapshot
// predicate is evaluated over.
func probeCells(t testing.TB, sw *Sweep, samples []int) []cellProbe {
	t.Helper()
	probes := make([]cellProbe, len(sw.Cells()))
	err := sw.Each(context.Background(), func(i int, cu *Cursor) error {
		bl := cu.Blacklist()
		blocked := cu.BlockedPeerFunc()
		p := cellProbe{
			Words: append([]uint64(nil), bl.words...),
			Count: bl.Len(),
			Rate:  cu.BlockingRate(),
		}
		for _, idx := range samples {
			p.Blocked = append(p.Blocked, blocked(idx))
		}
		probes[i] = p
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
// narrower — the sliding-window path produces byte-identical blacklists,
// rates and predicates to the from-scratch blacklistSet/addrSet
// reference, at Workers 1, 4 and NumCPU. CI runs it under -race, so it
// also proves rows share the victim and observedIDs memos safely.
func TestRollingSweepMatchesFromScratch(t *testing.T) {
	n := network(t)
	rng := rand.New(rand.NewPCG(7, 2026))
	samples := make([]int, 40)
	for i := range samples {
		samples[i] = rng.IntN(len(n.Peers))
	}
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
			probes := probeCells(t, sw, samples)
			if workers == 1 {
				serial = probes
				// The serial pass also checks every cell against the
				// from-scratch reference: blacklistSet for the union,
				// buildAddrSet for the (unmemoized) victim view.
				for i, cell := range sw.Cells() {
					ref := sw.Censor.blacklistSet(cell.Fleet, cell.Window, cell.Day)
					if !reflect.DeepEqual(probes[i].Words, ref.words) || probes[i].Count != ref.Len() {
						t.Fatalf("trial %d cell %d %+v: rolling blacklist differs from from-scratch union",
							trial, i, cell)
					}
					vic := sw.Victim.buildAddrSet(cell.Day)
					wantRate := 0.0
					if vic.Len() > 0 {
						wantRate = float64(ref.IntersectCount(vic)) / float64(vic.Len())
					}
					if probes[i].Rate != wantRate {
						t.Fatalf("trial %d cell %d %+v: rolling rate %v, from-scratch %v",
							trial, i, cell, probes[i].Rate, wantRate)
					}
					refBlocked := sw.BlockedPeerFunc(cell)
					for j, idx := range samples {
						if probes[i].Blocked[j] != refBlocked(idx) {
							t.Fatalf("trial %d cell %d %+v: predicate differs at peer %d",
								trial, i, cell, idx)
						}
					}
				}
			} else if !reflect.DeepEqual(probes, serial) {
				t.Fatalf("trial %d Workers=%d: rolling probes differ from serial", trial, workers)
			}
		}
	}
}

// TestRollingBlacklistAtEquivalence: the exported map view agrees with a
// rolling cell's set for the censor's own (k, WindowDays, day) corner.
func TestRollingBlacklistAtEquivalence(t *testing.T) {
	n := network(t)
	sw, err := NewSweep(n, SweepConfig{Fleets: []int{4}, Windows: []int{6}, Days: []int{12, 15, 20}, SeedBase: 31})
	if err != nil {
		t.Fatal(err)
	}
	err = sw.Each(context.Background(), func(i int, cu *Cursor) error {
		cell := cu.Cell()
		c := sw.Censor
		want := make(map[netip.Addr]bool, cu.Blacklist().Len())
		cu.Blacklist().ForEach(func(id int32) { want[c.ix.Addr(id)] = true })
		got := c.blacklistSet(cell.Fleet, cell.Window, cell.Day)
		gotMap := make(map[netip.Addr]bool, got.Len())
		got.ForEach(func(id int32) { gotMap[c.ix.Addr(id)] = true })
		if !reflect.DeepEqual(want, gotMap) {
			t.Errorf("cell %+v: rolling map view differs from from-scratch", cell)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// BlacklistAt itself (the censor's configured window) against the
	// rolling union of a matching single-cell sweep.
	sw2, err := NewSweep(n, SweepConfig{Fleets: []int{4}, Windows: []int{sw.Censor.WindowDays}, Days: []int{15}, SeedBase: 31})
	if err != nil {
		t.Fatal(err)
	}
	err = sw2.Each(context.Background(), func(i int, cu *Cursor) error {
		at := sw2.Censor.BlacklistAt(4, 15)
		if len(at) != cu.Blacklist().Len() {
			t.Errorf("BlacklistAt size %d, rolling %d", len(at), cu.Blacklist().Len())
		}
		cu.Blacklist().ForEach(func(id int32) {
			if !at[sw2.Censor.ix.Addr(id)] {
				t.Errorf("BlacklistAt missing %v", sw2.Censor.ix.Addr(id))
			}
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestVictimViewsMemoized: the per-day victim views are shared (same
// pointer on revisit) and identical to their from-scratch computes; the
// memoized KnownPeers matches the historical map-based fold exactly,
// order included.
func TestVictimViewsMemoized(t *testing.T) {
	n := network(t)
	v := NewVictim(n, 424)
	day := 17
	set := v.addrSet(day)
	if v.addrSet(day) != set {
		t.Fatal("addrSet not memoized")
	}
	if ref := v.buildAddrSet(day); !reflect.DeepEqual(set.words, ref.words) || set.Len() != ref.Len() {
		t.Fatal("memoized addrSet differs from from-scratch build")
	}
	peers := v.KnownPeers(day)
	if got := v.KnownPeers(day); len(got) != len(peers) || (len(got) > 0 && &got[0] != &peers[0]) {
		t.Fatal("KnownPeers not memoized")
	}
	// Historical reference: map[int]bool dedup in observation order.
	seen := make(map[int]bool)
	var ref []int
	start := day - v.NetDbWindowDays + 1
	if start < 0 {
		start = 0
	}
	for d := start; d <= day; d++ {
		for _, idx := range v.obs.ObserveDay(d) {
			if d < day && !retainStale(idx, d) {
				continue
			}
			if !seen[idx] {
				seen[idx] = true
				ref = append(ref, idx)
			}
		}
	}
	if !reflect.DeepEqual(peers, ref) {
		t.Fatal("bitset KnownPeers differs from the map-based reference")
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
			vic := sw.Victim.buildAddrSet(cell.Day)
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
