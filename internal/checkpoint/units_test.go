package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/faults"
	"github.com/i2pstudy/i2pstudy/internal/obs"
)

const (
	testSlots = 5 // units, one slot each
	testPoint = "test.units.slot"
)

func testKey(slot int) string { return fmt.Sprintf("exp-%03d", slot) }

// openSlots opens a Units over testSlots slots, each its own unit, as
// core.Study.RunAll lays out its experiments.
func openSlots(t *testing.T, dir string) (*Units[int], []int) {
	t.Helper()
	slots := make([]int, testSlots)
	u, err := OpenUnits(dir, manifest(), slots, testKey, testPoint)
	if err != nil {
		t.Fatal(err)
	}
	return u, slots
}

func TestUnitsSaveOnceAfterLastSlot(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Enable(reg)
	t.Cleanup(func() { obs.Enable(nil) })
	dir := t.TempDir()
	u, slots := openSlots(t, dir)

	// Every slot but the last, from as many goroutines: each is saved by
	// its own Commit, and the uncommitted one has no unit.
	last := len(slots) - 1
	var wg sync.WaitGroup
	for i := range last {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := u.Commit(i, 100+i); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if _, err := os.Stat(filepath.Join(dir, testKey(last))); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("slot %d saved before its Commit: %v", last, err)
	}
	if err := u.Commit(last, 100+last); err != nil {
		t.Fatal(err)
	}
	if got := stats.Get().rowsWritten.Load(); got != testSlots {
		t.Errorf("%d units written, want each of the %d exactly once", got, testSlots)
	}
	// A unit is the one-element JSON array of its slot.
	for i := range slots {
		want := fmt.Sprintf("[%d]", 100+i)
		if got, err := os.ReadFile(filepath.Join(dir, testKey(i))); err != nil || string(got) != want {
			t.Errorf("unit %s holds %q (err %v), want %s", testKey(i), got, err, want)
		}
	}
}

// A Commit saves its unit before it crosses the fault point, so a crash
// injected there finds the unit durable.
func TestUnitsSaveBeforeFaultPoint(t *testing.T) {
	faults.Enable(faults.New(faults.Injection{Point: testPoint, N: 2, Mode: faults.Error}))
	t.Cleanup(func() { faults.Enable(nil) })
	dir := t.TempDir()
	u, _ := openSlots(t, dir)
	if err := u.Commit(3, 30); err != nil {
		t.Fatal(err)
	}
	if err := u.Commit(1, 10); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("second Commit: err = %v, want the injected fault", err)
	}
	faults.Enable(nil)
	u, slots := openSlots(t, dir)
	for i, want := range []int{0, 10, 0, 30, 0} {
		if slots[i] != want || u.Resumed(i) != (want != 0) {
			t.Errorf("slot %d resumed as %d (Resumed %v), want %d", i, slots[i], u.Resumed(i), want)
		}
	}
}

func TestUnitsResumeFillsEveryMember(t *testing.T) {
	dir := t.TempDir()
	u, _ := openSlots(t, dir)
	// Odd slots commit; even slots never do, so they are not units.
	for i := 1; i < testSlots; i += 2 {
		if err := u.Commit(i, 10*i); err != nil {
			t.Fatal(err)
		}
	}

	u, slots := openSlots(t, dir)
	for i := range slots {
		committed := i%2 == 1
		if u.Resumed(i) != committed {
			t.Errorf("slot %d: Resumed = %v, want %v", i, u.Resumed(i), committed)
		}
		if want := 10 * i; committed && slots[i] != want {
			t.Errorf("slot %d resumed as %d, want %d", i, slots[i], want)
		}
		if !committed && slots[i] != 0 {
			t.Errorf("uncommitted slot %d was filled with %d", i, slots[i])
		}
	}
}

// A unit holds exactly one slot: a stored array of any other length is
// refused, and the error names the unit's key.
func TestUnitsWrongMemberCountNamesKey(t *testing.T) {
	for _, payload := range []string{`[]`, `[1,2]`} {
		dir := t.TempDir()
		s, err := Open(dir, manifest())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Save(testKey(2), []byte(payload)); err != nil {
			t.Fatal(err)
		}
		_, err = OpenUnits(dir, manifest(), make([]int, testSlots), testKey, testPoint)
		if err == nil || !strings.Contains(err.Error(), testKey(2)) {
			t.Errorf("unit %s = %s: err = %v, want one naming the key", testKey(2), payload, err)
		}
	}
}

func TestUnitsWithoutDirWriteNothingButCrossFaultPoint(t *testing.T) {
	cwd := t.TempDir()
	t.Chdir(cwd)
	counter := faults.New()
	faults.Enable(counter)
	t.Cleanup(func() { faults.Enable(nil) })

	u, slots := openSlots(t, "")
	for i := range slots {
		if u.Resumed(i) {
			t.Fatalf("slot %d resumed from no store", i)
		}
		if err := u.Commit(i, i+1); err != nil {
			t.Fatal(err)
		}
		if slots[i] != i+1 {
			t.Fatalf("slot %d = %d after Commit, want %d", i, slots[i], i+1)
		}
	}
	if got := counter.Hits(testPoint); got != uint64(len(slots)) {
		t.Errorf("fault point crossed %d times, want once per slot (%d)", got, len(slots))
	}
	if ents, err := os.ReadDir(cwd); err != nil || len(ents) != 0 {
		t.Errorf("a run without a checkpoint dir wrote %v (err %v)", ents, err)
	}
}

// A store whose manifest carries an older version is refused before
// any unit is read: RunAll moved from a bare Result to the one-element
// array under the same keys at version 2, and a version-1 unit must not
// be misread as the new format.
func TestUnitsRefuseStoreOfOlderVersion(t *testing.T) {
	dir := t.TempDir()
	old := manifest()
	s, err := Open(dir, old)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("unit-0", []byte(`{"ID":"bare object"}`)); err != nil {
		t.Fatal(err)
	}
	now := old
	now.Version++
	_, err = OpenUnits(dir, now, make([]map[string]string, 1),
		func(int) string { return "unit-0" }, testPoint)
	var mm *MismatchError
	if !errors.As(err, &mm) || mm.Field != "version" {
		t.Fatalf("err = %v, want a *MismatchError on version", err)
	}
}
