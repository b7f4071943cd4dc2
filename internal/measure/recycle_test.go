package measure

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"github.com/i2pstudy/i2pstudy/internal/faults"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// recycleTestNet is a network over the study's default 45-day horizon.
func recycleTestNet(t testing.TB) *sim.Network {
	t.Helper()
	n, err := sim.New(sim.Config{Seed: 7, Days: 45, TargetDailyPeers: 1500})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// scribbleSightings overwrites recs with records no capture or decode
// writes: low peer indexes in descending runs, so a stale read folds the
// wrong peers instead of indexing past the network, and every draw field
// set, the introducers past N included.
func scribbleSightings(recs []sim.Sighting) {
	g := sim.Sighting{Draw: sim.Draw{Port: 0xa5a5, N: 1}}
	for i := range g.Intros {
		g.Intros[i] = sim.IntroDraw{Pick: 0xa5a5a5a5, Tag: 0x5a5a5a5a, Port: 0xa5a5}
	}
	for i := range recs {
		g.Peer = int32(63 - i%64)
		recs[i] = g
	}
}

// TestCampaignRecyclesUnits: over a 45-day campaign, every committed
// unit's buffer is refilled by the same worker's next day, so the unit
// buffers a run allocates are bounded by its workers, not by the number
// of days.
func TestCampaignRecyclesUnits(t *testing.T) {
	n := recycleTestNet(t)
	for _, workers := range []int{1, 4} {
		c, err := NewCampaign(n, CampaignConfig{Observers: DefaultObserverFleet(8), StartDay: 0, EndDay: 45, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		// The seam runs on every worker after the commit lock is let
		// go, so it takes a lock of its own. Holding each buffer keeps
		// its address from being reused.
		var mu sync.Mutex
		buffers := map[*sim.Sighting]bool{}
		committed := 0
		c.scribble = func(recs []sim.Sighting) {
			mu.Lock()
			defer mu.Unlock()
			buffers[unsafe.SliceData(recs)] = true
			committed++
		}
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		if committed != 45 {
			t.Errorf("workers %d: %d units came back for reuse, want one per day, 45", workers, committed)
		}
		t.Logf("workers %d: %d unit buffers over 45 days", workers, len(buffers))
		// A worker's buffer is sized to its first day's active peers and
		// regrown at most once, should a later day have more.
		if len(buffers) > 2*workers {
			t.Errorf("workers %d: the run allocated %d unit buffers over 45 days, more than two per worker",
				workers, len(buffers))
		}
	}
}

// TestCampaignPoisonedUnits scribbles over every unit buffer the moment
// it comes back for reuse. Had anything — the fold, the checkpoint
// write, a later day's capture or a resume's decode — kept reading a
// unit after its commit, it would read garbage; the Dataset must still
// equal the unpoisoned Workers 1 run's at Workers 1, 4 and auto, and for
// a checkpointed run stopped midway and resumed.
func TestCampaignPoisonedUnits(t *testing.T) {
	n := recycleTestNet(t)
	cfg := CampaignConfig{Observers: DefaultObserverFleet(8), StartDay: 0, EndDay: 45, Workers: 1}
	reference, _ := runStreamCampaign(t, n, cfg)
	poisoned := func(cfg CampaignConfig) (*Dataset, error) {
		c, err := NewCampaign(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.scribble = scribbleSightings
		return c.Run()
	}
	for _, workers := range []int{1, 4, 0} {
		cfg.Workers = workers
		ds, err := poisoned(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ds, reference) {
			t.Errorf("workers %d: the poisoned run's Dataset differs from the Workers 1 reference", workers)
		}
	}

	// The first run stops at the fault after committing 20 days; the
	// second decodes those from the store, each buffer scribbled between
	// units, and captures the rest.
	cfg.Workers = 4
	cfg.CheckpointDir = t.TempDir()
	t.Cleanup(func() { faults.Enable(nil) })
	faults.Enable(faults.New(faults.Injection{Point: "measure.campaign.day", N: 20, Mode: faults.Error}))
	if _, err := poisoned(cfg); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("the interrupted run returned %v, want the injected fault", err)
	}
	faults.Enable(nil)
	ds, err := poisoned(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds, reference) {
		t.Error("the poisoned resumed run's Dataset differs from the Workers 1 reference")
	}
}
