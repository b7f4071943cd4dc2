package distrib

import (
	"context"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/censor"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

func testTrustDistributors(seed uint64) []*TrustSocial {
	return []*TrustSocial{
		NewTrustSocial(TrustSocialConfig{
			Name:  "trust-social",
			Graph: TrustGraphConfig{Users: 160, Seed: seed},
		}),
		NewTrustSocial(TrustSocialConfig{
			Name:         "trust-strict",
			Graph:        TrustGraphConfig{Users: 160, Seed: seed + 1},
			BanThreshold: 1,
		}),
	}
}

func testTrustConfig(workers int) TrustSweepConfig {
	return TrustSweepConfig{
		Strategy:     censor.BridgeCombined,
		Distributors: testTrustDistributors(1),
		Enumerators: []Enumerator{
			{Kind: Crawler, Budget: 200},
			{Kind: Insider, InsiderFrac: 0.3},
		},
		Day:          10,
		HorizonDays:  10,
		MaxResources: 120,
		SeedBase:     2018,
		Workers:      workers,
	}
}

func TestTrustSweepRun(t *testing.T) {
	n := network(t)
	sw, err := NewTrustSweep(n, testTrustConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	nd := len(sw.Cfg.Distributors)
	if want := len(sw.Cfg.Enumerators) * nd; len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}

	// Enumerators outer, distributors inner.
	byKey := make(map[[2]string]TrustRow)
	for i, r := range rows {
		d, e := sw.Cfg.Distributors[i%nd], sw.Cfg.Enumerators[i/nd]
		if r.Distributor != d.Name() || r.Enumerator != e.Name() || r.Users != d.Graph().Len() {
			t.Fatalf("row %d labeled (%s, %s, %d users), want (%s, %s, %d users)",
				i, r.Distributor, r.Enumerator, r.Users, d.Name(), e.Name(), d.Graph().Len())
		}
		key := [2]string{r.Distributor, r.Enumerator}
		byKey[key] = r
		sr := r.Days
		if len(sr) != sw.Cfg.HorizonDays+1 {
			t.Fatalf("row %v has %d days", key, len(sr))
		}
		for h, day := range sr {
			for _, v := range []float64{day.Bootstrap, day.Survival, day.Enumerated, day.Banned} {
				if v < 0 || v > 1 {
					t.Fatalf("row %v day %d: fraction %v outside [0, 1]", key, h, v)
				}
			}
			if day.CompromisedBanned > r.Compromised {
				t.Fatalf("row %v day %d: banned %d of %d compromised users", key, h, day.CompromisedBanned, r.Compromised)
			}
			if h == 0 {
				continue
			}
			if day.Enumerated < sr[h-1].Enumerated {
				t.Fatalf("row %v: enumeration regressed at day %d", key, h)
			}
			if day.Banned < sr[h-1].Banned {
				t.Fatalf("row %v: banned fraction regressed at day %d", key, h)
			}
			if day.Leaks < sr[h-1].Leaks {
				t.Fatalf("row %v: leak count regressed at day %d", key, h)
			}
			if day.CompromisedBanned < sr[h-1].CompromisedBanned {
				t.Fatalf("row %v: compromised-banned count regressed at day %d", key, h)
			}
		}
		final := sr[len(sr)-1]
		switch key[1] {
		case "crawler":
			// Uninvited identities get nothing: the crawler never
			// enumerates, nobody leaks, nobody is banned.
			if final.Enumerated != 0 || final.Leaks != 0 || final.Banned != 0 || r.Compromised != 0 {
				t.Errorf("row %v: crawler enumerated %.2f (leaks %d, banned %.2f, compromised %d); graph identities cannot be minted",
					key, final.Enumerated, final.Leaks, final.Banned, r.Compromised)
			}
		case "insider":
			if r.Compromised == 0 {
				t.Errorf("row %v: a 30%% insider compromised nobody in a %d-user graph", key, r.Users)
			}
			if final.Leaks == 0 {
				t.Errorf("row %v: compromised users leaked nothing over %d days", key, sw.Cfg.HorizonDays)
			}
			if final.Enumerated == 0 {
				t.Errorf("row %v: insider leaks enumerated nothing", key)
			}
		}
		if sr[0].Bootstrap == 0 {
			t.Errorf("row %v: no user bootstrapped on distribution day", key)
		}
		if sr[0].Requests == 0 {
			t.Errorf("row %v: no requests on distribution day", key)
		}
	}

	// The Salmon loop closes: under a heavy insider the strict frontend
	// (ban on first strike) must have banned someone by the end.
	strict := byKey[[2]string{"trust-strict", "insider"}].Days
	if final := strict[len(strict)-1]; final.Banned == 0 {
		t.Error("trust-strict row banned nobody under a 30% insider")
	}
}

func TestTrustSweepValidation(t *testing.T) {
	n := network(t)
	ts := testTrustDistributors(1)
	enums := []Enumerator{{Kind: Insider, InsiderFrac: 0.1}}
	bad := []TrustSweepConfig{
		{},
		{Distributors: ts},
		{Enumerators: enums},
		{Distributors: ts, Enumerators: enums, Day: 35, HorizonDays: 10},
		{Distributors: ts, Enumerators: enums, Day: 5, HorizonDays: -1},
		{Distributors: ts, Enumerators: enums, Day: -1},
		{Distributors: []*TrustSocial{ts[0], ts[0]}, Enumerators: enums, Day: 5},
		{Distributors: []*TrustSocial{nil}, Enumerators: enums, Day: 5},
	}
	for i, cfg := range bad {
		if _, err := NewTrustSweep(n, cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

// referenceTrustCell replays one (distributor, enumerator) row's
// horizon day h from scratch: a fresh trustState stepped serially from
// day zero through h. A row's day h is exactly the end of this replay.
func referenceTrustCell(t *testing.T, sw *TrustSweep, d *TrustSocial, e Enumerator, h int) TrustDay {
	t.Helper()
	st := sw.newTrustState(d, e)
	var day TrustDay
	for i := 0; i <= h; i++ {
		var err error
		if day, err = st.step(i); err != nil {
			t.Fatal(err)
		}
	}
	return day
}

// TestTrustSweepResumesAcrossRows is the trust engine's golden
// guarantee (the TestRollingSweepMatchesFromScratch pattern): on
// randomized graphs and grids, each row the engine returns — one
// trustState stepped through the whole horizon — holds on every day h
// what a fresh trustState stepped from day zero through h holds
// (referenceTrustCell), and its labels and compromised count are the
// row's; and the rows are byte-identical at Workers 1, 4 and NumCPU. CI
// runs it under -race, so it also proves rows share the backend, graph
// and address index safely.
func TestTrustSweepResumesAcrossRows(t *testing.T) {
	n := network(t)
	rng := rand.New(rand.NewPCG(2026, 5))
	trials := 3
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		dists := []*TrustSocial{
			NewTrustSocial(TrustSocialConfig{
				Name: "trust-a",
				Graph: TrustGraphConfig{
					Users: 60 + rng.IntN(150),
					Seed:  rng.Uint64(),
				},
				BanThreshold: float64(1 + rng.IntN(3)),
				PromoteDays:  1 + rng.IntN(6),
			}),
			NewTrustSocial(TrustSocialConfig{
				Name:  "trust-b",
				Graph: TrustGraphConfig{Users: 40 + rng.IntN(100), Seed: rng.Uint64()},
			}),
		}
		cfg := TrustSweepConfig{
			Strategy:     censor.BridgeCombined,
			Distributors: dists,
			Enumerators: []Enumerator{
				{Kind: Insider, InsiderFrac: 0.1 + 0.4*rng.Float64()},
				{Kind: Crawler, Budget: float64(rng.IntN(400))},
			},
			Day:          5 + rng.IntN(20),
			HorizonDays:  3 + rng.IntN(6),
			MaxResources: 80 + rng.IntN(80),
			SeedBase:     rng.Uint64(),
		}

		var serial []TrustRow
		for _, workers := range []int{1, 4, runtime.NumCPU()} {
			cfg.Workers = workers
			sw, err := NewTrustSweep(n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := sw.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if workers == 1 {
				serial = rows
				// The serial pass also checks every row day against the
				// from-scratch replay: stepping on must equal restarting.
				i := 0
				for _, e := range cfg.Enumerators {
					for _, d := range cfg.Distributors {
						r := rows[i]
						if r.Distributor != d.Name() || r.Enumerator != e.Name() || r.Users != d.Graph().Len() ||
							r.Compromised != sw.newTrustState(d, e).numCompromised || len(r.Days) != cfg.HorizonDays+1 {
							t.Fatalf("trial %d row %d: (%s, %s, %d users, %d compromised, %d days) is not the (%s, %s) row",
								trial, i, r.Distributor, r.Enumerator, r.Users, r.Compromised, len(r.Days), d.Name(), e.Name())
						}
						for h, got := range r.Days {
							if ref := referenceTrustCell(t, sw, d, e, h); !reflect.DeepEqual(got, ref) {
								t.Fatalf("trial %d row (%s, %s) day %d: stepped row differs from from-scratch replay\n got %+v\nwant %+v",
									trial, d.Name(), e.Name(), h, got, ref)
							}
						}
						i++
					}
				}
			} else if !reflect.DeepEqual(rows, serial) {
				t.Fatalf("trial %d Workers=%d: trust sweep differs from serial", trial, workers)
			}
		}
	}
}

func TestTrustSweepCancelled(t *testing.T) {
	n := network(t)
	sw, err := NewTrustSweep(n, testTrustConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sw.Run(ctx); err != context.Canceled {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
}

// BenchmarkTrustSweepSerial / Parallel are the trust-engine perf
// pair. Rows
// (distributor x enumerator combinations) are the parallelism grain —
// days within a row are inherently sequential — so the grid carries
// 3 x 3 rows to give the pool something to fan out. The pair is
// -short-safe: the CI bench smoke covers it at -benchtime=1x on a
// reduced network.
func benchmarkTrustSweep(b *testing.B, workers int) {
	peers := 2000
	if testing.Short() {
		peers = 800
	}
	n, err := sim.New(sim.Config{Seed: 7, Days: 40, TargetDailyPeers: peers})
	if err != nil {
		b.Fatal(err)
	}
	censor.IndexFor(n) // built once per network; exclude from the loop
	dists := []*TrustSocial{
		NewTrustSocial(TrustSocialConfig{Name: "trust-a", Graph: TrustGraphConfig{Users: 240, Seed: 1}}),
		NewTrustSocial(TrustSocialConfig{Name: "trust-b", Graph: TrustGraphConfig{Users: 240, Seed: 2}, BanThreshold: 1}),
		NewTrustSocial(TrustSocialConfig{Name: "trust-c", Graph: TrustGraphConfig{Users: 240, Seed: 3}, PromoteDays: 3}),
	}
	cfg := TrustSweepConfig{
		Strategy:     censor.BridgeCombined,
		Distributors: dists,
		Enumerators: []Enumerator{
			{Kind: Crawler, Budget: 200},
			{Kind: Sybil, Budget: 300},
			{Kind: Insider, InsiderFrac: 0.15},
		},
		Day:          10,
		HorizonDays:  15,
		MaxResources: 160,
		SeedBase:     2018,
		Workers:      workers,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw, err := NewTrustSweep(n, cfg)
		if err != nil {
			b.Fatal(err)
		}
		rows, err := sw.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != len(cfg.Enumerators)*len(cfg.Distributors) {
			b.Fatal("wrong row count")
		}
	}
}

func BenchmarkTrustSweepSerial(b *testing.B)   { benchmarkTrustSweep(b, 1) }
func BenchmarkTrustSweepParallel(b *testing.B) { benchmarkTrustSweep(b, 0) }
