package measure

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/faults"
	"github.com/i2pstudy/i2pstudy/internal/measure/enginetest"
	"github.com/i2pstudy/i2pstudy/internal/netdb"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// TestCampaignCrashResume is the campaign's crash-safety golden, stated
// through the shared harness: a campaign killed by an injected fault at
// a day boundary and resumed from its checkpoint directory yields a
// Dataset byte-identical to an uninterrupted run, at every ladder
// width. The day unit holds the captured sightings themselves — peer
// index and draw — and the decoder checks each against the network, so
// the resumed accumulation folds exactly what the live capture folded.
func TestCampaignCrashResume(t *testing.T) {
	n := parallelTestNet(t)
	enginetest.CrashResume(t, 2018, []enginetest.CrashCase{{
		Name:  "campaign-days",
		Point: "measure.campaign.day",
		Run: func(t testing.TB, dir string, workers int) (any, error) {
			c, err := NewCampaign(n, CampaignConfig{
				Observers:     DefaultObserverFleet(4),
				StartDay:      0,
				EndDay:        8,
				Workers:       workers,
				CheckpointDir: dir,
			})
			if err != nil {
				t.Fatal(err)
			}
			ds, err := c.RunContext(context.Background())
			if err != nil {
				return nil, err
			}
			return ds, nil
		},
	}})
}

// TestResumedDatasetMatchesRouterInfoFold: a campaign that computes
// nothing and folds every day from its store yields the Dataset the
// version 1 resume folded — the map-merged CollectDay records, each
// round-tripped through the netdb wire codec, under the RouterInfo fold.
func TestResumedDatasetMatchesRouterInfoFold(t *testing.T) {
	n := parallelTestNet(t)
	cfg := CampaignConfig{Observers: DefaultObserverFleet(4), StartDay: 0, EndDay: 8, CheckpointDir: t.TempDir()}
	written, _ := runStreamCampaign(t, n, cfg)
	resumed, c := runStreamCampaign(t, n, cfg)
	if peak := c.MemStats().PeakRetainedUnits; peak != 0 {
		t.Fatalf("the second run captured %d day units; it was to resume all of them", peak)
	}

	units := retainedUnits(c)
	for _, recs := range units {
		for i, ri := range recs {
			data, err := ri.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if recs[i], err = netdb.DecodeRouterInfo(data); err != nil {
				t.Fatal(err)
			}
		}
	}
	reference := foldUnits(c, units)
	if !reflect.DeepEqual(resumed, reference) {
		t.Error("the Dataset resumed from sighting units differs from the RouterInfo fold of wire-round-tripped records")
	}
	if !reflect.DeepEqual(written, reference) {
		t.Error("the Dataset of the writing run differs from the RouterInfo fold of wire-round-tripped records")
	}
}

// TestCampaignResumesAnySubset: a store holding any subset of the days
// resumes, not only a prefix. A finished store loses the units of its
// first, a middle and its last day; the resumed run recaptures exactly
// those three days, rewrites their units byte for byte, and folds the
// Dataset of an uninterrupted run.
func TestCampaignResumesAnySubset(t *testing.T) {
	const days = 8
	n := parallelTestNet(t)
	dir := t.TempDir()
	cfg := CampaignConfig{Observers: DefaultObserverFleet(4), StartDay: 0, EndDay: days, Workers: 4}
	reference, _ := runStreamCampaign(t, n, cfg)
	cfg.CheckpointDir = dir
	runStreamCampaign(t, n, cfg)

	dropped := []int{0, days / 2, days - 1}
	want := map[int][]byte{}
	for _, day := range dropped {
		path := filepath.Join(dir, dayKey(day))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want[day] = data
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}

	reg := withObs(t)
	resumed, _ := runStreamCampaign(t, n, cfg)
	if !reflect.DeepEqual(resumed, reference) {
		t.Error("the Dataset resumed from a store missing days 0, 4 and 7 differs from the uninterrupted run's")
	}
	if text, line := reg.RenderText(), fmt.Sprintf(`i2p_engine_tasks_total{mode="parallel"} %d`, len(dropped)); !strings.Contains(text, line) {
		t.Errorf("the resumed run did not recapture exactly the %d missing days: want %s in\n%s", len(dropped), line, text)
	}
	for _, day := range dropped {
		got, err := os.ReadFile(filepath.Join(dir, dayKey(day)))
		if err != nil {
			t.Fatalf("day %d's unit was not rewritten: %v", day, err)
		}
		if !bytes.Equal(got, want[day]) {
			t.Errorf("day %d's rewritten unit differs from the one the first run wrote", day)
		}
	}
}

// snapshotTree reads every file under dir, keyed by its path below dir.
func snapshotTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	tree := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		tree[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestSnapshotTreeSurvivesCrashResume covers the one campaign path that
// still builds RouterInfos: a campaign writing snapshots beside its
// checkpoint store, killed at a day boundary and resumed at another
// width, leaves the snapshot tree — file names and contents — an
// uninterrupted run leaves, and every routerInfo file in it loads with
// its integrity tag intact.
func TestSnapshotTreeSurvivesCrashResume(t *testing.T) {
	const days = 6
	// Every snapshot file is fsynced: a few hundred peers keep this quick.
	n, err := sim.New(sim.Config{Seed: 9, Days: days, TargetDailyPeers: 300})
	if err != nil {
		t.Fatal(err)
	}
	run := func(snapDir, ckptDir string, workers int) error {
		c, err := NewCampaign(n, CampaignConfig{
			Observers: DefaultObserverFleet(3), StartDay: 0, EndDay: days,
			Workers: workers, SnapshotDir: snapDir, CheckpointDir: ckptDir,
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.RunContext(context.Background())
		return err
	}

	cleanDir := t.TempDir()
	if err := run(cleanDir, "", 1); err != nil {
		t.Fatal(err)
	}
	want := snapshotTree(t, cleanDir)

	snapDir, ckptDir := t.TempDir(), t.TempDir()
	t.Cleanup(func() { faults.Enable(nil) })
	faults.Enable(faults.New(faults.Injection{Point: "measure.campaign.day", N: 3, Mode: faults.Error}))
	err = run(snapDir, ckptDir, 4)
	faults.Enable(nil)
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("crash run returned %v, want the injected fault", err)
	}
	if partial := snapshotTree(t, snapDir); len(partial) == 0 || len(partial) >= len(want) {
		t.Fatalf("crash run left %d snapshot files, an uninterrupted run %d: the crash was to fall between", len(partial), len(want))
	}
	if err := run(snapDir, ckptDir, 2); err != nil {
		t.Fatalf("resume run failed: %v", err)
	}
	got := snapshotTree(t, snapDir)
	if len(got) != len(want) {
		t.Errorf("resumed run left %d snapshot files, an uninterrupted run %d", len(got), len(want))
	}
	for name, data := range want {
		if have, ok := got[name]; !ok {
			t.Errorf("resumed run did not write %s", name)
		} else if !reflect.DeepEqual(have, data) {
			t.Errorf("%s differs between the resumed and the uninterrupted run", name)
		}
	}

	loaded := 0
	for day := 0; day < days; day++ {
		k, err := netdb.NewStore().LoadDir(filepath.Join(snapDir, dayKey(day), "netDb"))
		if err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
		loaded += k
	}
	// LoadDir skips a record whose tag does not verify, so every file
	// loading means every tag held.
	if loaded != len(got) {
		t.Errorf("%d of %d snapshot files load through netdb.Store.LoadDir", loaded, len(got))
	}
}
