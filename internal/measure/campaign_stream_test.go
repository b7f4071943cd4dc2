package measure

import (
	"context"
	"math/rand"
	"os"
	"reflect"
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
// against: every day's retainedUnit, with every day's unit retained in
// memory.
func retainedUnits(c *Campaign) [][]*netdb.RouterInfo {
	units := make([][]*netdb.RouterInfo, c.cfg.EndDay)
	for day := c.cfg.StartDay; day < c.cfg.EndDay; day++ {
		units[day] = retainedUnit(c, day)
	}
	return units
}

// retainedUnit is one day of the reference: every observer's full
// CollectDay, merged through a map by the stated rule — newest Published
// wins, ties to the earliest observer. It shares no code with
// Observer.CaptureDay's claim set, so it is the test that fails if an
// observer ever stamps a different Published.
func retainedUnit(c *Campaign, day int) []*netdb.RouterInfo {
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
	referenceSortByPeer(c.net, recs)
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

// assertNeverSpilled checks what admission control makes true by
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
// retained-unit count stays within the admission window — never
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
		// A unit exists only for an admitted, not yet folded day, and
		// there are at most window of those.
		MaxRetained: func(workers int) int { return windowFactor * workers },
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
// run with the peak inside the window, retain/release balanced in the
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
		if peak > windowFactor*8 {
			t.Errorf("withStore=%v: peak retained units %d exceeds the window", withStore, peak)
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

// TestDayWindowParksOutOfOrderFoldsInOrder pins the ring mechanics:
// units parked in any order come out in day order, one fold turn at a
// time, and a day's admission slot comes back only when it has folded.
func TestDayWindowParksOutOfOrderFoldsInOrder(t *testing.T) {
	ctx := context.Background()
	w := newDayWindow(5, 9, 3)
	units := map[int]*dayUnit{}
	for want := 5; want < 8; want++ {
		day, ok, err := w.admit(ctx)
		if err != nil || !ok || day != want {
			t.Fatalf("admit = (%d, %v, %v), want day %d", day, ok, err, want)
		}
		units[day] = &dayUnit{bytes: int64(day)}
	}
	if len(w.slots) != cap(w.slots) {
		t.Fatalf("window holds %d of %d slots after admitting a full window", len(w.slots), cap(w.slots))
	}

	park := func(day int) {
		t.Helper()
		if err := w.put(day, units[day]); err != nil {
			t.Fatal(err)
		}
	}
	takeWant := func(want int) {
		t.Helper()
		day, u, ok := w.take()
		if !ok || day != want || u != units[want] {
			t.Fatalf("take = (%d, %v, %v), want day %d", day, u, ok, want)
		}
	}
	takeNothing := func(why string) {
		t.Helper()
		if day, _, ok := w.take(); ok {
			t.Fatalf("take returned day %d %s", day, why)
		}
	}

	park(7)
	takeNothing("while day 5 is not parked")
	park(5)
	takeWant(5)
	park(6)
	takeNothing("while day 5 is still being folded")
	w.folded()
	if len(w.slots) != 2 {
		t.Fatalf("folding a day returned %d slots, want 1", 3-len(w.slots))
	}
	takeWant(6)
	w.folded()
	takeWant(7)
	w.folded()
	takeNothing("from an empty ring")

	// The slots folded free admit the last day, and then no more.
	if day, ok, err := w.admit(ctx); err != nil || !ok || day != 8 {
		t.Fatalf("admit = (%d, %v, %v), want day 8", day, ok, err)
	}
	if _, ok, err := w.admit(ctx); ok || err != nil {
		t.Fatalf("admit past the last day = (ok %v, err %v), want (false, nil)", ok, err)
	}
	if len(w.slots) != 1 {
		t.Fatalf("%d slots held with one day in flight", len(w.slots))
	}
}

// TestDayWindowRefusesPutOutsideWindow: a unit for a day the window does
// not cover — ahead of it, behind it, or already parked — is an error,
// never a silent overwrite of another day's slot.
func TestDayWindowRefusesPutOutsideWindow(t *testing.T) {
	ctx := context.Background()
	w := newDayWindow(0, 10, 2)
	u := &dayUnit{}
	for range 2 {
		if _, ok, err := w.admit(ctx); !ok || err != nil {
			t.Fatalf("admit = (ok %v, err %v)", ok, err)
		}
	}
	if err := w.put(2, u); err == nil {
		t.Error("put accepted day 2 into window [0, 2)")
	}
	if err := w.put(0, u); err != nil {
		t.Fatal(err)
	}
	if err := w.put(0, u); err == nil {
		t.Error("put accepted day 0 twice")
	}
	if _, _, ok := w.take(); !ok {
		t.Fatal("day 0 not available")
	}
	w.folded()
	if err := w.put(0, u); err == nil {
		t.Error("put accepted day 0 behind window [1, 3)")
	}
	if err := w.put(2, u); err != nil {
		t.Errorf("put refused day 2 inside window [1, 3): %v", err)
	}
	if left := w.drain(); len(left) != 1 {
		t.Errorf("drain returned %d units, want the one parked", len(left))
	}
}

// TestStreamFoldOrderInvariant is the fold property test: whatever
// order admitted days finish capturing in and however narrow the window,
// folding the captured sightings the ring hands out — through one fold
// state carried across days, as the campaign does — yields a Dataset
// identical to the RouterInfo fold of the retained units in order.
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
	sc := c.newDayCapture()

	ctx := context.Background()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		window := 1 + rng.Intn(4)
		w := newDayWindow(0, days, window)
		ds := NewDataset(0, days)
		f := newFolder(ds, n)
		var inFlight []int // admitted, still "capturing"
		folded := 0
		for folded < days {
			for len(w.slots) < window {
				day, ok, err := w.admit(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				inFlight = append(inFlight, day)
			}
			i := rng.Intn(len(inFlight))
			day := inFlight[i]
			inFlight = append(inFlight[:i], inFlight[i+1:]...)
			if err := w.put(day, c.captureDay(day, sc, nil)); err != nil {
				t.Fatal(err)
			}
			for {
				due, u, ok := w.take()
				if !ok {
					break
				}
				f.fold(due, u.recs)
				w.folded()
				folded++
			}
		}
		if !reflect.DeepEqual(ds, reference) {
			t.Fatalf("trial %d (window %d): folded Dataset differs from in-order reference", trial, window)
		}
	}
}

// TestCampaignCancelledWhileBlockedOnAdmission stalls the fold of the
// first day so the other workers fill the window and block in admit,
// then cancels: run must return the context's error, which it can only
// do once every worker goroutine has exited.
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
		done <- c.run(ctx, 0, func(day int, _ []sim.Sighting) error {
			<-ctx.Done() // day 0 never finishes folding
			return ctx.Err()
		})
	}()

	// With day 0 stuck in its fold, exactly the window's days can be
	// admitted; once all of them are captured every other worker has
	// nothing left to do but wait in admit.
	deadline := time.Now().Add(30 * time.Second)
	for c.retained.Load() < windowFactor*workers {
		if time.Now().After(deadline) {
			t.Fatalf("window never filled: %d units retained", c.retained.Load())
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
		t.Fatal("run did not return after cancellation: a worker is stuck in admit")
	}
	if got := c.retained.Load(); got != 0 {
		t.Errorf("%d retained units leaked after cancellation", got)
	}
}
