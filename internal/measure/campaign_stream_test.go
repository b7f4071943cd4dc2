package measure

import (
	"context"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/i2pstudy/i2pstudy/internal/measure/enginetest"
	"github.com/i2pstudy/i2pstudy/internal/netdb"
	"github.com/i2pstudy/i2pstudy/internal/obs/promtest"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// runStreamCampaign runs the fixture campaign and returns both the
// Dataset and the Campaign so callers can read MemStats.
func runStreamCampaign(t testing.TB, n *sim.Network, cfg CampaignConfig) (*Dataset, *Campaign) {
	t.Helper()
	c, err := NewCampaign(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := c.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return ds, c
}

// retainedUnits is the independent reference the pipeline is compared
// against: every day's referenceMergeDay, with every day's unit retained in
// memory.
func retainedUnits(c *Campaign) [][]*netdb.RouterInfo {
	units := make([][]*netdb.RouterInfo, c.cfg.EndDay)
	for day := c.cfg.StartDay; day < c.cfg.EndDay; day++ {
		units[day] = referenceMergeDay(c, day)
	}
	return units
}

// referenceMergeDay is one day of the reference: every observer's full
// CollectDay, merged through a map by the stated rule — newest Published
// wins, ties to the earliest observer — and returned in the map's order.
// It shares no code with Observer.CaptureDay's claim set, so it is the
// test that fails if an observer ever stamps a different Published.
func referenceMergeDay(c *Campaign, day int) []*netdb.RouterInfo {
	merged := make(map[netdb.Hash]*netdb.RouterInfo)
	for _, o := range c.obs {
		for _, ri := range o.CollectDay(day) {
			prev, ok := merged[ri.Identity]
			if !ok || ri.Published.After(prev.Published) {
				merged[ri.Identity] = ri
			}
		}
	}
	recs := make([]*netdb.RouterInfo, 0, len(merged))
	for _, ri := range merged {
		recs = append(recs, ri)
	}
	return recs
}

// foldUnits folds retained units in day order into a fresh Dataset with
// the RouterInfo fold the campaign used before it captured sightings.
func foldUnits(c *Campaign, units [][]*netdb.RouterInfo) *Dataset {
	ds := NewDataset(c.cfg.StartDay, c.cfg.EndDay)
	sets := newReferenceSets(len(c.net.Peers))
	for day := c.cfg.StartDay; day < c.cfg.EndDay; day++ {
		ds.referenceAccumulateDay(c.net, day, units[day], sets)
	}
	return ds
}

// assertNeverSpilled checks what one unit per worker makes true by
// construction: nothing was evicted, every retain was released, and no
// spill directory was created under the (test-private) temp root.
func assertNeverSpilled(t testing.TB, c *Campaign, tmpRoot string) {
	t.Helper()
	if got := c.MemStats().UnitsEvicted; got != 0 {
		t.Errorf("UnitsEvicted = %d, want 0", got)
	}
	if got := c.retained.Load(); got != 0 {
		t.Errorf("%d retained units leaked after the run", got)
	}
	ents, err := os.ReadDir(tmpRoot)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Errorf("campaign left %s under the temp root", e.Name())
	}
}

// TestCampaignStreamingMatchesRetained is the tentpole contract, stated
// through the shared harness: at every ladder width the pipeline
// produces the Dataset its Workers = 1 run produces while its peak
// retained-unit count stays within one unit per worker — never
// O(days) — and nothing is ever written to disk to get there. The
// Workers = 1 Dataset — folded from sightings — in turn equals the
// RouterInfo fold of the retained, map-merged CollectDay reference.
func TestCampaignStreamingMatchesRetained(t *testing.T) {
	n := parallelTestNet(t)
	tmpRoot := t.TempDir()
	t.Setenv("TMPDIR", tmpRoot)
	cfg := CampaignConfig{Observers: DefaultObserverFleet(8), StartDay: 0, EndDay: 30}
	var serial *Dataset
	enginetest.Stream(t, []enginetest.StreamCase{{
		Name: "campaign",
		Run: func(t testing.TB, workers int) (any, int) {
			cfg := cfg
			cfg.Workers = workers
			ds, c := runStreamCampaign(t, n, cfg)
			if ds.TotalPeers() == 0 {
				t.Fatal("campaign observed nothing")
			}
			assertNeverSpilled(t, c, tmpRoot)
			if workers == 1 {
				serial = ds
			}
			return ds, c.MemStats().PeakRetainedUnits
		},
		// A worker holds one unit, and commits it before it takes
		// another day.
		MaxRetained: func(workers int) int { return workers },
	}})

	c, err := NewCampaign(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, foldUnits(c, retainedUnits(c))) {
		t.Error("pipeline Dataset differs from the map-merged CollectDay reference")
	}
}

// TestCampaignNeverEvicts runs the configuration that used to force
// evictions — more workers than cores, with and without a checkpoint
// store to spill into — and checks the Dataset matches the Workers = 1
// run with at most one unit per worker, retain/release balanced in the
// campaign and in the registry's gauges, and nothing evicted. The store
// ends holding one unit per day and no staging file, so it can resume.
func TestCampaignNeverEvicts(t *testing.T) {
	n := parallelTestNet(t)
	reg := withObs(t)
	ckpt := t.TempDir() // a sibling of tmpRoot, which must stay empty
	tmpRoot := t.TempDir()
	t.Setenv("TMPDIR", tmpRoot)
	cfg := CampaignConfig{Observers: DefaultObserverFleet(8), StartDay: 0, EndDay: 30, Workers: 1}
	reference, _ := runStreamCampaign(t, n, cfg)
	for _, withStore := range []bool{false, true} {
		cfg.Workers = 8
		if withStore {
			cfg.CheckpointDir = ckpt
		}
		ds, c := runStreamCampaign(t, n, cfg)
		if !reflect.DeepEqual(ds, reference) {
			t.Errorf("withStore=%v: Workers=8 dataset differs from the Workers=1 reference", withStore)
		}
		peak := c.MemStats().PeakRetainedUnits
		if peak > cfg.Workers {
			t.Errorf("withStore=%v: peak retained units %d exceeds one per worker", withStore, peak)
		}
		assertNeverSpilled(t, c, tmpRoot)

		fams, err := promtest.Parse(reg.RenderText())
		if err != nil {
			t.Fatal(err)
		}
		for name, want := range map[string]float64{
			"i2p_measure_retained_units":      0,
			"i2p_measure_resident_bytes":      0,
			"i2p_measure_retained_units_peak": float64(peak),
		} {
			f := promtest.Find(fams, name)
			if f == nil || len(f.Samples) != 1 {
				t.Fatalf("withStore=%v: %s missing from the registry", withStore, name)
			}
			if got := f.Samples[0].Value; got != want {
				t.Errorf("withStore=%v: %s = %v after the run, want %v", withStore, name, got, want)
			}
		}
	}

	ents, err := os.ReadDir(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	units := 0
	for _, e := range ents {
		switch name := e.Name(); {
		case strings.HasPrefix(name, "day-"):
			units++
		case strings.HasPrefix(name, "."):
			t.Errorf("staging file %s left in the checkpoint dir", name)
		}
	}
	if units != cfg.EndDay-cfg.StartDay {
		t.Errorf("checkpoint dir holds %d day units, want %d", units, cfg.EndDay-cfg.StartDay)
	}
}

// TestStreamFoldOrderInvariant is the fold property test: the census
// fold commutes. Folding the captured days through one folder carried
// across days, as the campaign does, in a shuffled day order and each
// day's records reversed, yields a Dataset identical to the RouterInfo
// fold of the retained units in day order.
func TestStreamFoldOrderInvariant(t *testing.T) {
	const days = 10
	n, err := sim.New(sim.Config{Seed: 13, Days: days, TargetDailyPeers: 200})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCampaign(n, CampaignConfig{Observers: DefaultObserverFleet(3), StartDay: 0, EndDay: days})
	if err != nil {
		t.Fatal(err)
	}
	reference := foldUnits(c, retainedUnits(c))
	w := c.newDayWorker()

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		ds := NewDataset(0, days)
		f := newFolder(ds, n)
		for _, day := range rng.Perm(days) {
			recs := c.captureDay(day, w)
			slices.Reverse(recs)
			f.fold(day, recs)
		}
		if !reflect.DeepEqual(ds, reference) {
			t.Fatalf("trial %d: the shuffled, reversed fold differs from the in-order reference", trial)
		}
	}
}

// TestCampaignCancelledWhileBlockedOnAdmission stalls the commit of the
// first day so the other workers capture a day each and wait on the
// commit lock, then cancels: run must return the context's error, which
// it can only do once every worker goroutine has exited, with every
// captured unit released.
func TestCampaignCancelledWhileBlockedOnAdmission(t *testing.T) {
	const workers = 4
	n := parallelTestNet(t)
	c, err := NewCampaign(n, CampaignConfig{
		Observers: DefaultObserverFleet(2), StartDay: 0, EndDay: 30, Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- c.run(ctx, nil, func(day int, _ []sim.Sighting) error {
			<-ctx.Done() // the first commit never finishes
			return ctx.Err()
		})
	}()

	// With one commit stuck holding the lock, each other worker captures
	// one day and waits on the lock with its unit.
	deadline := time.Now().Add(30 * time.Second)
	for c.retained.Load() < workers {
		if time.Now().After(deadline) {
			t.Fatalf("the workers never all held a unit: %d units retained", c.retained.Load())
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("run returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after cancellation: a worker is stuck on the commit lock")
	}
	if got := c.retained.Load(); got != 0 {
		t.Errorf("%d retained units leaked after cancellation", got)
	}
}
