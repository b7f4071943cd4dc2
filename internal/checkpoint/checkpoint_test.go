package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/obs"
)

func manifest() Manifest {
	return Manifest{Engine: "test.Engine", Version: 1, ConfigHash: 0xabc, Seed: 7}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), manifest())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Load("row-001"); err != nil || ok {
		t.Fatalf("Load before Save: ok=%v err=%v", ok, err)
	}
	if err := s.Save("row-001", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	data, ok, err := s.Load("row-001")
	if err != nil || !ok || string(data) != "payload" {
		t.Fatalf("Load = %q ok=%v err=%v", data, ok, err)
	}
	// No staging orphan left behind by a clean commit.
	entries, _ := os.ReadDir(s.Dir())
	for _, e := range entries {
		if e.Name() != manifestName && e.Name() != "row-001" {
			t.Fatalf("unexpected file %s", e.Name())
		}
	}
}

func TestJSONRoundTripPreservesNilVsEmpty(t *testing.T) {
	type unit struct {
		Vals  []float64
		Empty []float64
		Nil   []float64
	}
	dir := t.TempDir()
	open := func() (*Units[unit], []unit) {
		slots := make([]unit, 1)
		u, err := OpenUnits(dir, manifest(), slots, func(int) int { return 0 }, func(int) string { return "u" }, "test.point")
		if err != nil {
			t.Fatal(err)
		}
		return u, slots
	}
	want := unit{Vals: []float64{0.1, 2e-300, 3}, Empty: []float64{}}
	u, _ := open()
	if err := u.Commit(0, want); err != nil {
		t.Fatal(err)
	}
	u, got := open()
	if !u.Resumed(0) {
		t.Fatal("committed unit not resumed")
	}
	if !reflect.DeepEqual(got[0], want) {
		t.Fatalf("round trip: got %#v, want %#v", got[0], want)
	}
}

func TestReopenSameManifestKeepsUnits(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, manifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("row-000", []byte("x")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, manifest())
	if err != nil {
		t.Fatalf("reopen with identical manifest: %v", err)
	}
	if _, ok, err := s2.Load("row-000"); err != nil || !ok {
		t.Fatalf("unit lost across reopen: ok=%v err=%v", ok, err)
	}
}

// Satellite: resuming with a different seed, config hash, or engine
// version must fail loudly with a typed error, never silently merge.
func TestManifestMismatchIsTypedAndLoud(t *testing.T) {
	base := manifest()
	cases := []struct {
		name  string
		mut   func(*Manifest)
		field string
	}{
		{"seed", func(m *Manifest) { m.Seed = 8 }, "seed"},
		{"config-hash", func(m *Manifest) { m.ConfigHash = 0xdef }, "config_hash"},
		{"engine-version", func(m *Manifest) { m.Version = 2 }, "version"},
		{"engine-name", func(m *Manifest) { m.Engine = "other.Engine" }, "engine"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, base)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Save("row-000", []byte("stale")); err != nil {
				t.Fatal(err)
			}
			want := base
			tc.mut(&want)
			_, err = Open(dir, want)
			var mm *MismatchError
			if !errors.As(err, &mm) {
				t.Fatalf("Open with mutated %s: err = %v, want *MismatchError", tc.name, err)
			}
			if mm.Field != tc.field {
				t.Fatalf("MismatchError.Field = %q, want %q", mm.Field, tc.field)
			}
			// The stale unit must be untouched: refusing means not merging
			// AND not deleting someone else's state.
			if _, err := os.Stat(filepath.Join(dir, "row-000")); err != nil {
				t.Fatalf("mismatch handling disturbed prior state: %v", err)
			}
		})
	}
}

func TestCorruptManifestRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, manifest()); err == nil {
		t.Fatal("Open accepted a corrupt manifest")
	}
}

func TestOpenSweepsStagingOrphans(t *testing.T) {
	dir := t.TempDir()
	// A crash between stage and rename leaves a "."-prefixed tmp file.
	if err := os.WriteFile(filepath.Join(dir, ".row-042.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Orphans can also be directories (snapshotter stages whole day dirs).
	if err := os.MkdirAll(filepath.Join(dir, ".day-003.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, manifest())
	if err != nil {
		t.Fatal(err)
	}
	for _, orphan := range []string{".row-042.tmp", ".day-003.tmp"} {
		if _, err := os.Stat(filepath.Join(dir, orphan)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("orphan %s survived Open: %v", orphan, err)
		}
	}
	// And the partial unit is invisible to Load.
	if _, ok, _ := s.Load("row-042"); ok {
		t.Fatal("partial staging file mistaken for a committed unit")
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	s, err := Open(t.TempDir(), manifest())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", ".", ".hidden", "a/b", `a\b`, manifestName} {
		if err := s.Save(bad, []byte("x")); err == nil {
			t.Errorf("Save(%q) succeeded, want error", bad)
		}
		if _, _, err := s.Load(bad); err == nil {
			t.Errorf("Load(%q) succeeded, want error", bad)
		}
	}
}

func TestExists(t *testing.T) {
	dir := t.TempDir()
	if Exists(dir) {
		t.Fatal("Exists on empty dir")
	}
	if _, err := Open(dir, manifest()); err != nil {
		t.Fatal(err)
	}
	if !Exists(dir) {
		t.Fatal("Exists after Open")
	}
}

func TestHasherDistinguishesFieldBoundaries(t *testing.T) {
	sum := func(fold func(h *Hasher)) uint64 {
		h := NewHasher()
		fold(h)
		return h.Sum()
	}
	a := sum(func(h *Hasher) { h.String("ab"); h.String("c") })
	b := sum(func(h *Hasher) { h.String("a"); h.String("bc") })
	if a == b {
		t.Fatal("length-prefixed strings collided across boundaries")
	}
	if sum(func(h *Hasher) { h.Int(1) }) == sum(func(h *Hasher) { h.Int(2) }) {
		t.Fatal("ints collided")
	}
	if sum(func(h *Hasher) { h.Float64(0.1) }) == sum(func(h *Hasher) { h.Float64(0.2) }) {
		t.Fatal("floats collided")
	}
	if sum(func(h *Hasher) { h.Uint64(7) }) != sum(func(h *Hasher) { h.Uint64(7) }) {
		t.Fatal("hash not deterministic")
	}
}

func TestObsCountersTrackSpillAndResume(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Enable(reg)
	t.Cleanup(func() { obs.Enable(nil) })

	s, err := Open(t.TempDir(), manifest())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("12345678")
	if err := s.Save("row-000", payload); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Load("row-000"); err != nil || !ok {
		t.Fatalf("Load ok=%v err=%v", ok, err)
	}
	st := stats.Get()
	if got := st.rowsWritten.Load(); got != 1 {
		t.Errorf("rows_written = %d, want 1", got)
	}
	if got := st.rowsResumed.Load(); got != 1 {
		t.Errorf("rows_resumed = %d, want 1", got)
	}
	if got := st.bytesSpilled.Load(); got != uint64(len(payload)) {
		t.Errorf("bytes_spilled = %d, want %d", got, len(payload))
	}
	// The families render on /metrics-style output.
	text := reg.RenderText()
	for _, name := range []string{
		"i2p_checkpoint_rows_written_total",
		"i2p_checkpoint_rows_resumed_total",
		"i2p_checkpoint_bytes_spilled_total",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("metric %s missing from render", name)
		}
	}
}

func TestWriteFileAtomicCommitsAndOverwrites(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "summary.txt")
	if err := WriteFileAtomic(path, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "first" {
		t.Fatalf("content = %q, want %q", got, "first")
	}
	// Overwriting an existing file goes through the same staged commit.
	if err := WriteFileAtomic(path, []byte("second")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "second" {
		t.Fatalf("content = %q, want %q", got, "second")
	}
	// No staging residue either way.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("staging file left behind: %s", e.Name())
		}
	}
	// A relative path with no directory component stages in ".".
	t.Chdir(dir)
	if err := WriteFileAtomic("bare.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, "bare.txt")); string(got) != "x" {
		t.Fatal("bare-name write missing")
	}
}

func TestSyncTreeWalksFilesAndDirs(t *testing.T) {
	root := t.TempDir()
	sub := filepath.Join(root, "netDb", "deep")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		name := filepath.Join(sub, "routerInfo-"+strings.Repeat("a", i)+".dat")
		if err := os.WriteFile(name, []byte("data"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := SyncTree(root); err != nil {
		t.Fatal(err)
	}
	if err := SyncTree(filepath.Join(root, "no-such-dir")); err == nil {
		t.Fatal("SyncTree on a missing root must error")
	}
}
