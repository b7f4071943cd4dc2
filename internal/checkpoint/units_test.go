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
	testRows  = 3 // units
	testDays  = 4 // slots per unit
	testPoint = "test.units.slot"
)

func testRowKey(row int) string { return fmt.Sprintf("row-%03d", row) }

// openRows opens a Units over a testRows x testDays grid laid out like
// the sweep engines': slot i belongs to row i % testRows.
func openRows(t *testing.T, dir string) (*Units[int], []int) {
	t.Helper()
	slots := make([]int, testRows*testDays)
	u, err := OpenUnits(dir, manifest(), slots, func(i int) int { return i % testRows }, testRowKey, testPoint)
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
	u, slots := openRows(t, dir)

	// Every slot but row 0's last: no unit may exist yet, however many
	// goroutines the commits came from.
	last := len(slots) - testRows
	var wg sync.WaitGroup
	for i := range slots {
		if i == last {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := u.Commit(i, 100+i); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if _, err := os.Stat(filepath.Join(dir, testRowKey(0))); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("row 0 saved with a slot outstanding: %v", err)
	}
	if err := u.Commit(last, 100+last); err != nil {
		t.Fatal(err)
	}
	if got := stats.Get().rowsWritten.Load(); got != testRows {
		t.Errorf("%d units written, want each of the %d exactly once", got, testRows)
	}
	// A unit is the JSON array of its slots in ascending slot order.
	for row := 0; row < testRows; row++ {
		want := fmt.Sprintf("[%d,%d,%d,%d]", 100+row, 100+row+testRows, 100+row+2*testRows, 100+row+3*testRows)
		if got, err := os.ReadFile(filepath.Join(dir, testRowKey(row))); err != nil || string(got) != want {
			t.Errorf("row %d holds %q (err %v), want %s", row, got, err, want)
		}
	}
}

func TestUnitsResumeFillsEveryMember(t *testing.T) {
	dir := t.TempDir()
	u, _ := openRows(t, dir)
	// Row 1 completes; row 2 is left one slot short, so it is not a unit.
	for i := 1; i < testRows*testDays; i += testRows {
		if err := u.Commit(i, 10*i); err != nil {
			t.Fatal(err)
		}
	}
	if err := u.Commit(2, 20); err != nil {
		t.Fatal(err)
	}

	u, slots := openRows(t, dir)
	for i := range slots {
		member := i%testRows == 1
		if u.Resumed(i) != member {
			t.Errorf("slot %d: Resumed = %v, want %v", i, u.Resumed(i), member)
		}
		if want := 10 * i; member && slots[i] != want {
			t.Errorf("slot %d resumed as %d, want %d", i, slots[i], want)
		}
		if !member && slots[i] != 0 {
			t.Errorf("slot %d of an unfinished row was filled with %d", i, slots[i])
		}
	}
}

func TestUnitsWrongMemberCountNamesKey(t *testing.T) {
	dir := t.TempDir()
	u, slots := openRows(t, dir)
	for i := range slots {
		if err := u.Commit(i, i); err != nil {
			t.Fatal(err)
		}
	}
	// The same keys over a grid one day shorter: every stored row now
	// holds one result too many.
	short := make([]int, testRows*(testDays-1))
	_, err := OpenUnits(dir, manifest(), short, func(i int) int { return i % testRows }, testRowKey, testPoint)
	if err == nil || !strings.Contains(err.Error(), testRowKey(0)) {
		t.Fatalf("err = %v, want one naming %s", err, testRowKey(0))
	}
}

func TestUnitsWithoutDirWriteNothingButCrossFaultPoint(t *testing.T) {
	cwd := t.TempDir()
	t.Chdir(cwd)
	counter := faults.New()
	faults.Enable(counter)
	t.Cleanup(func() { faults.Enable(nil) })

	u, slots := openRows(t, "")
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

// The array payload changed what core.Study.RunAll and distrib.Sweep
// store under unchanged keys, so their versions went from 1 to 2: a
// directory written by the old build must be refused, not misread.
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
		func(int) int { return 0 }, func(int) string { return "unit-0" }, testPoint)
	var mm *MismatchError
	if !errors.As(err, &mm) || mm.Field != "version" {
		t.Fatalf("err = %v, want a *MismatchError on version", err)
	}
}
