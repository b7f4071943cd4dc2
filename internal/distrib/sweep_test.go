package distrib

import (
	"context"
	"reflect"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/censor"
	"github.com/i2pstudy/i2pstudy/internal/measure/enginetest"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

func testSweepConfig(workers int) SweepConfig {
	return SweepConfig{
		Strategy:     censor.BridgeCombined,
		Distributors: DefaultDistributors(),
		Enumerators:  DefaultEnumerators(),
		Days:         []int{10, 18},
		HorizonDays:  8,
		Users:        40,
		MaxResources: 120,
		SeedBase:     2018,
		Workers:      workers,
	}
}

func TestSweepRun(t *testing.T) {
	n := network(t)
	sw, err := NewSweep(n, testSweepConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	cells := sw.Cells()
	wantCells := len(sw.Cfg.Days) * len(sw.Cfg.Enumerators) * len(sw.Cfg.Distributors)
	if len(cells) != wantCells {
		t.Fatalf("grid has %d cells, want %d", len(cells), wantCells)
	}
	// Days outermost, then enumerators, then distributors.
	if cells[0].Day != 10 || cells[0].Enum.Kind != Crawler || cells[0].Dist.Name() != "https" {
		t.Fatalf("cells[0] = (%s, %s, %d)", cells[0].Dist.Name(), cells[0].Enum.Name(), cells[0].Day)
	}

	results, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != wantCells {
		t.Fatalf("got %d results", len(results))
	}
	byKey := make(map[[2]string]CellResult)
	for i, r := range results {
		c := cells[i]
		if r.Distributor != c.Dist.Name() || r.Enumerator != c.Enum.Name() || r.Day != c.Day {
			t.Fatalf("result %d labeled (%s, %s, %d), cell is (%s, %s, %d)",
				i, r.Distributor, r.Enumerator, r.Day, c.Dist.Name(), c.Enum.Name(), c.Day)
		}
		wantLen := sw.Cfg.HorizonDays + 1
		for _, series := range [][]float64{r.Bootstrap, r.Survival, r.Enumerated, r.Collateral} {
			if len(series) != wantLen {
				t.Fatalf("cell %d: series length %d, want %d", i, len(series), wantLen)
			}
			for _, v := range series {
				if v < 0 || v > 1 {
					t.Fatalf("cell %d: series value %v outside [0, 1]", i, v)
				}
			}
		}
		for h := 1; h < wantLen; h++ {
			if r.Enumerated[h] < r.Enumerated[h-1] {
				t.Fatalf("cell %d: enumeration regressed at day %d", i, h)
			}
		}
		if r.Day == 10 {
			byKey[[2]string{r.Distributor, r.Enumerator}] = r
		}
	}

	// The leak-profile ordering the pipeline exists to show: the crawler
	// enumerates the cheap HTTPS channel but cannot afford the
	// out-of-band manual channel at all.
	https := byKey[[2]string{"https", "crawler"}]
	manual := byKey[[2]string{"manual-reseed", "crawler"}]
	if https.Enumerated[len(https.Enumerated)-1] == 0 {
		t.Error("crawler discovered nothing on the https frontend")
	}
	if got := manual.Enumerated[len(manual.Enumerated)-1]; got != 0 {
		t.Errorf("crawler enumerated %.2f of the manual-reseed partition; identity cost should forbid it", got)
	}
	// The insider leaks regardless of channel friction.
	mi := byKey[[2]string{"manual-reseed", "insider"}]
	if mi.Enumerated[len(mi.Enumerated)-1] == 0 {
		t.Error("insider discovered nothing on the manual-reseed frontend")
	}
	// Day zero everyone just bootstrapped from a live handout.
	if https.Bootstrap[0] == 0 {
		t.Error("no user bootstrapped on distribution day")
	}
}

// TestDistribSweepWorkerDeterminism is the subsystem's golden contract,
// stated through the shared enginetest harness: Workers = 1 (the serial
// reference), 4, NumCPU and auto produce byte-identical results for
// both the cell-level arms-race sweep and the rolling trust-graph rows.
func TestDistribSweepWorkerDeterminism(t *testing.T) {
	n := network(t)
	ctx := context.Background()

	enginetest.Golden(t, []enginetest.Case{
		{
			Name: "arms-race",
			Run: func(t testing.TB, workers int) any {
				sw, err := NewSweep(n, testSweepConfig(workers))
				if err != nil {
					t.Fatal(err)
				}
				results, err := sw.Run(ctx)
				if err != nil {
					t.Fatal(err)
				}
				return results
			},
		},
		{
			Name: "trust-rows",
			Run: func(t testing.TB, workers int) any {
				sw, err := NewTrustSweep(n, testTrustConfig(workers))
				if err != nil {
					t.Fatal(err)
				}
				results, err := sw.Run(ctx)
				if err != nil {
					t.Fatal(err)
				}
				return results
			},
		},
	})
}

// TestSweepSharedBackendDeterminism: cells reusing one Sweep (shared
// backends, owner tables) match cells from a freshly built Sweep.
func TestSweepSharedBackendDeterminism(t *testing.T) {
	n := network(t)
	a, err := NewSweep(n, testSweepConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSweep(n, testSweepConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	ra, err := a.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ra, rb) {
		t.Fatal("rebuilt sweep differs")
	}
}

func TestSweepCancelled(t *testing.T) {
	n := network(t)
	sw, err := NewSweep(n, testSweepConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sw.Run(ctx); err != context.Canceled {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
}

// BenchmarkDistribSweepSerial / Parallel are the distribution-pipeline
// perf pair. Each iteration rebuilds the sweep with fresh backends, so the numbers
// measure real partition + arms-race work at each width; the per-day
// owner tables come from the network-owned day memo (owners.go), so
// after the first iteration they are cache hits — repeated sweeps on
// one network are exactly the workload the cache exists for, and the
// bench measures it that way. The pair is -short-safe: the CI bench
// smoke covers it at -benchtime=1x.
func benchmarkDistribSweep(b *testing.B, workers int) {
	n, err := sim.New(sim.Config{Seed: 7, Days: 40, TargetDailyPeers: 2000})
	if err != nil {
		b.Fatal(err)
	}
	censor.IndexFor(n) // built once per network; exclude from the loop
	cfg := SweepConfig{
		Strategy:     censor.BridgeCombined,
		Distributors: DefaultDistributors(),
		Enumerators:  DefaultEnumerators(),
		Days:         []int{10, 18, 26},
		HorizonDays:  10,
		Users:        60,
		MaxResources: 160,
		SeedBase:     2018,
		Workers:      workers,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw, err := NewSweep(n, cfg)
		if err != nil {
			b.Fatal(err)
		}
		results, err := sw.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != len(cfg.Days)*len(cfg.Enumerators)*len(cfg.Distributors) {
			b.Fatal("wrong cell count")
		}
	}
}

func BenchmarkDistribSweepSerial(b *testing.B)   { benchmarkDistribSweep(b, 1) }
func BenchmarkDistribSweepParallel(b *testing.B) { benchmarkDistribSweep(b, 0) }
