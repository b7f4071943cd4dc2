package measure

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/measure/enginetest"
	"github.com/i2pstudy/i2pstudy/internal/pool"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// parallelTestNet builds the 30-day, 8-observer fixture the equivalence
// suite runs against.
func parallelTestNet(t testing.TB) *sim.Network {
	t.Helper()
	n, err := sim.New(sim.Config{Seed: 7, Days: 30, TargetDailyPeers: 1500})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func runWithWorkers(t testing.TB, n *sim.Network, workers int) *Dataset {
	t.Helper()
	c, err := NewCampaign(n, CampaignConfig{
		Observers: DefaultObserverFleet(8),
		StartDay:  0,
		EndDay:    30,
		Workers:   workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestCampaignParallelMatchesSerial is the engine's golden equivalence
// guarantee, stated through the shared enginetest harness: any worker
// count produces a Dataset identical to the serial reference path, so
// parallelism can never change a figure or table.
func TestCampaignParallelMatchesSerial(t *testing.T) {
	n := parallelTestNet(t)
	var serial *Dataset
	enginetest.Golden(t, []enginetest.Case{{
		Name: "campaign",
		Run: func(t testing.TB, workers int) any {
			ds := runWithWorkers(t, n, workers)
			if ds.TotalPeers() == 0 {
				t.Fatal("campaign observed nothing")
			}
			if workers == 1 {
				serial = ds
			}
			return ds
		},
	}})
	// Oversubscription (more workers than days) must also match.
	if over := runWithWorkers(t, n, 32); !reflect.DeepEqual(serial, over) {
		t.Error("Workers=32 dataset differs from serial reference")
	}
}

// TestCampaignParallelRaceStress hammers the engine from several
// goroutines at once; it exists for the -race build, where it proves the
// capture/merge/accumulate pipeline and the immutable-network contract
// hold under real interleavings.
func TestCampaignParallelRaceStress(t *testing.T) {
	n, err := sim.New(sim.Config{Seed: 11, Days: 10, TargetDailyPeers: 600})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := NewCampaign(n, CampaignConfig{
				Observers: DefaultObserverFleet(5),
				StartDay:  0,
				EndDay:    10,
				Workers:   8,
			})
			if err != nil {
				t.Error(err)
				return
			}
			ds, err := c.RunContext(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			if ds.TotalPeers() == 0 {
				t.Error("stress campaign observed nothing")
			}
		}()
	}
	wg.Wait()
}

// TestObserveGridMatchesObserveDay fans an observer-by-day grid out
// through FanOut the way the population figures draw it — DrawDay into
// per-task scratch, positions resolved through ActivePeers, each cell
// written to its own slot — and holds every cell to a direct ObserveDay
// call, at one worker and at eight.
func TestObserveGridMatchesObserveDay(t *testing.T) {
	n := parallelTestNet(t)
	var observers []*sim.Observer
	for _, cfg := range DefaultObserverFleet(4) {
		observers = append(observers, n.NewObserver(cfg))
	}
	days := []int{3, 7, 12}
	for _, workers := range []int{1, 8} {
		grid := make([][]int, len(observers)*len(days))
		err := pool.FanOut(context.Background(), len(grid), workers, func(i int) error {
			o, day := observers[i%len(observers)], days[i/len(observers)]
			active := n.ActivePeers(day)
			var ids []int
			for _, j := range o.DrawDay(day, nil) {
				ids = append(ids, int(active[j]))
			}
			grid[i] = ids
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for o, obs := range observers {
			for d, day := range days {
				if want := obs.ObserveDay(day); !reflect.DeepEqual(grid[d*len(observers)+o], want) {
					t.Errorf("workers=%d: cell (%d, %d) differs from ObserveDay(%d)", workers, o, d, day)
				}
			}
		}
	}
}

// TestCampaignRunContextCancelled verifies cancellation surfaces the
// context error on both paths and leaves no partially written snapshot
// day behind.
func TestCampaignRunContextCancelled(t *testing.T) {
	n := parallelTestNet(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		dir := t.TempDir()
		c, err := NewCampaign(n, CampaignConfig{
			Observers:   DefaultObserverFleet(2),
			StartDay:    0,
			EndDay:      5,
			SnapshotDir: dir,
			Workers:     workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.RunContext(ctx); err != context.Canceled {
			t.Fatalf("Workers=%d: RunContext error = %v, want context.Canceled", workers, err)
		}
		assertNoPartialSnapshots(t, dir)
	}
}

// TestSnapshotDaysAtomic runs a snapshotting campaign and checks that
// only complete, renamed day directories remain — the atomic-write
// contract Ctrl-C handling in the CLIs relies on.
func TestSnapshotDaysAtomic(t *testing.T) {
	n := parallelTestNet(t)
	dir := t.TempDir()
	// A stale temp dir from a previous crash must not break the run.
	if err := os.MkdirAll(filepath.Join(dir, ".day-001.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	c, err := NewCampaign(n, CampaignConfig{
		Observers:   DefaultObserverFleet(3),
		StartDay:    0,
		EndDay:      3,
		SnapshotDir: dir,
		Workers:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertNoPartialSnapshots(t, dir)
	for _, day := range []string{"day-000", "day-001", "day-002"} {
		ents, err := os.ReadDir(filepath.Join(dir, day, "netDb"))
		if err != nil {
			t.Fatalf("%s: %v", day, err)
		}
		if len(ents) == 0 {
			t.Errorf("%s: empty netDb snapshot", day)
		}
	}
}

// TestSnapshotterSweepsOrphanedStaging pins the startup-cleanup half of
// the atomic-snapshot contract: ".day-NNN.tmp" staging dirs left by a
// crash between stage and rename are removed when the campaign starts —
// even for days outside the new run's range, which nothing would ever
// overwrite — and are never mistaken for complete days. Entries that
// don't match the staging pattern are left alone.
func TestSnapshotterSweepsOrphanedStaging(t *testing.T) {
	n := parallelTestNet(t)
	dir := t.TempDir()
	// An orphan with partial content, for a day this run won't touch.
	orphan := filepath.Join(dir, ".day-042.tmp")
	if err := os.MkdirAll(filepath.Join(orphan, "netDb"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(orphan, "netDb", "routerInfo-junk.dat"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	// An empty orphan for a day the run will rewrite anyway.
	if err := os.MkdirAll(filepath.Join(dir, ".day-000.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	// Bystanders the sweep must not touch: a complete-looking day from a
	// past run and an unrelated file.
	if err := os.MkdirAll(filepath.Join(dir, "day-099"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}

	c, err := NewCampaign(n, CampaignConfig{
		Observers:   DefaultObserverFleet(2),
		StartDay:    0,
		EndDay:      2,
		SnapshotDir: dir,
		Workers:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}

	assertNoPartialSnapshots(t, dir)
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphaned staging dir %s survived startup (err=%v)", orphan, err)
	}
	for _, keep := range []string{"day-099", "notes.txt", "day-000", "day-001"} {
		if _, err := os.Stat(filepath.Join(dir, keep)); err != nil {
			t.Errorf("startup sweep touched %s: %v", keep, err)
		}
	}
}

func assertNoPartialSnapshots(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("partial snapshot left behind: %s", e.Name())
		}
	}
}

// BenchmarkCampaignSerial and BenchmarkCampaignParallel are the
// campaign's perf pair.
func benchmarkCampaign(b *testing.B, workers int) {
	n, err := sim.New(sim.Config{Seed: 7, Days: 30, TargetDailyPeers: 3050})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := NewCampaign(n, CampaignConfig{
			Observers: DefaultObserverFleet(8),
			StartDay:  0,
			EndDay:    30,
			Workers:   workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		ds, err := c.RunContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if ds.TotalPeers() == 0 {
			b.Fatal("empty campaign")
		}
	}
}

func BenchmarkCampaignSerial(b *testing.B)   { benchmarkCampaign(b, 1) }
func BenchmarkCampaignParallel(b *testing.B) { benchmarkCampaign(b, 0) }
func BenchmarkCampaignParallel4(b *testing.B) {
	benchmarkCampaign(b, 4)
}

// BenchmarkCampaignResume times the pure-fold path: a campaign over a
// finished checkpoint store loads, verifies and folds every day unit and
// captures nothing. The store is written once, outside the timer.
func BenchmarkCampaignResume(b *testing.B) {
	n, err := sim.New(sim.Config{Seed: 7, Days: 30, TargetDailyPeers: 3050})
	if err != nil {
		b.Fatal(err)
	}
	cfg := CampaignConfig{Observers: DefaultObserverFleet(8), StartDay: 0, EndDay: 30, CheckpointDir: b.TempDir()}
	c, err := NewCampaign(n, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := c.Run()
		if err != nil {
			b.Fatal(err)
		}
		if peak := c.MemStats().PeakRetainedUnits; peak != 0 || ds.TotalPeers() == 0 {
			b.Fatalf("resume captured %d day units and observed %d peers", peak, ds.TotalPeers())
		}
	}
}
