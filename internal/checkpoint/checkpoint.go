// Package checkpoint is the crash-safety layer of the engines a run can
// resume: core.Study.RunAll's finished experiments and the measurement
// campaign's day units spill to disk as they finish, so a run killed
// midway resumes by loading finished units instead of recomputing them.
// Because both engines fold results in stable order regardless of
// Workers, a resumed run's output is byte-identical to an uninterrupted
// one — the determinism contract extends across process deaths.
//
// Layout: a checkpoint directory holds a manifest.json identifying the
// run (engine name + version, config hash, seed) plus one file per
// completed unit. Every write uses the same atomic stage-then-rename
// pattern as measure.snapshotter (write ".name.tmp", fsync, rename to
// "name"), so a unit either exists completely or not at all; a crash
// mid-write leaves only a "."-prefixed orphan that Open sweeps away.
// Resuming against a directory whose manifest disagrees on any key
// field fails with a *MismatchError — stale shards are never silently
// merged.
//
// The experiment runner does not drive a Store itself: it declares its
// slots to Units, which owns loading, the save on each Commit and the
// fault point. The campaign, which folds binary day units in order, uses
// Store.Save and Store.Load directly.
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Manifest identifies the run a checkpoint directory belongs to. A
// directory is only resumable by a run with the identical manifest.
type Manifest struct {
	// Engine names the producing engine, e.g. "censor.Sweep".
	Engine string `json:"engine"`
	// Version is the engine's checkpoint-format version; bump it when
	// the unit encoding or the unit keying changes so old state is
	// refused instead of misread. It is Workers-independent: width
	// never changes what a unit contains.
	Version int `json:"version"`
	// ConfigHash fingerprints every config field that shapes the
	// output (grid dimensions, scale, horizon — not Workers).
	ConfigHash uint64 `json:"config_hash"`
	// Seed is the simulation seed.
	Seed uint64 `json:"seed"`
}

// MismatchError reports a resume attempt against checkpoint state
// written by a different run: a manifest field disagrees.
type MismatchError struct {
	Field string // "engine", "version", "config_hash", or "seed"
	Have  string // value found in the on-disk manifest
	Want  string // value the resuming run expects
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("checkpoint: manifest %s mismatch: directory has %s, run expects %s (refusing to mix state from different runs)",
		e.Field, e.Have, e.Want)
}

const manifestName = "manifest.json"

// Store is an open checkpoint directory. Save and Load are safe for
// concurrent use by engine workers: units are independent files and the
// stage-then-rename commit is atomic.
type Store struct {
	dir string
}

// Open prepares dir for the run described by m: it creates the
// directory if needed, sweeps "."-prefixed staging orphans left by a
// crash mid-write, and creates or verifies the manifest. If a manifest
// already exists it must match m exactly; any disagreement returns a
// *MismatchError and no state is touched.
func Open(dir string, m Manifest) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if err := sweepOrphans(dir); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		if err := writeAtomic(dir, manifestName, mustJSON(m)); err != nil {
			return nil, err
		}
	case err != nil:
		return nil, fmt.Errorf("checkpoint: %w", err)
	default:
		var have Manifest
		if err := json.Unmarshal(raw, &have); err != nil {
			return nil, fmt.Errorf("checkpoint: corrupt manifest %s: %w", path, err)
		}
		if err := have.verify(m); err != nil {
			return nil, err
		}
	}
	return &Store{dir: dir}, nil
}

// Exists reports whether dir already holds a checkpoint manifest —
// CLIs use it to refuse clobbering prior state unless -resume is given.
func Exists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// verify compares the on-disk manifest against the resuming run's.
func (have Manifest) verify(want Manifest) error {
	if have.Engine != want.Engine {
		return &MismatchError{Field: "engine", Have: have.Engine, Want: want.Engine}
	}
	if have.Version != want.Version {
		return &MismatchError{Field: "version", Have: fmt.Sprint(have.Version), Want: fmt.Sprint(want.Version)}
	}
	if have.ConfigHash != want.ConfigHash {
		return &MismatchError{Field: "config_hash", Have: fmt.Sprintf("%016x", have.ConfigHash), Want: fmt.Sprintf("%016x", want.ConfigHash)}
	}
	if have.Seed != want.Seed {
		return &MismatchError{Field: "seed", Have: fmt.Sprint(have.Seed), Want: fmt.Sprint(want.Seed)}
	}
	return nil
}

// sweepOrphans removes "."-prefixed staging files left by a crash
// between stage and rename. Committed units never start with ".", so
// this can never delete completed work.
func sweepOrphans(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".") && strings.HasSuffix(e.Name(), ".tmp") {
			if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
				return fmt.Errorf("checkpoint: sweeping orphan %s: %w", e.Name(), err)
			}
		}
	}
	return nil
}

// Save commits one completed unit under key. The write is atomic:
// either the unit appears complete or (after a crash) only a staging
// orphan remains for the next Open to sweep.
func (s *Store) Save(key string, data []byte) error {
	if err := validKey(key); err != nil {
		return err
	}
	if err := writeAtomic(s.dir, key, data); err != nil {
		return err
	}
	st := stats.Get()
	st.rowsWritten.Inc()
	st.bytesSpilled.Add(uint64(len(data)))
	return nil
}

// Load reads a previously committed unit. ok is false when the unit
// does not exist — the cell was never finished, so recompute it.
func (s *Store) Load(key string) (data []byte, ok bool, err error) {
	if err := validKey(key); err != nil {
		return nil, false, err
	}
	data, err = os.ReadFile(filepath.Join(s.dir, key))
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("checkpoint: %w", err)
	}
	stats.Get().rowsResumed.Inc()
	return data, true, nil
}

// validKey rejects keys that would escape the directory or collide
// with the staging/manifest namespace.
func validKey(key string) error {
	if key == "" || key == manifestName ||
		strings.HasPrefix(key, ".") || strings.ContainsAny(key, "/\\") {
		return fmt.Errorf("checkpoint: invalid unit key %q", key)
	}
	return nil
}

// writeAtomic stages data as dir/.name.tmp, syncs, and renames it to
// dir/name — the same commit discipline as measure.snapshotter.
func writeAtomic(dir, name string, data []byte) error {
	return WriteFileAtomic(filepath.Join(dir, name), data)
}

// WriteFileAtomic commits data to path with the package's durability
// discipline: stage as ".name.tmp" in the destination directory, write,
// fsync, rename over path, then fsync the directory so the rename itself
// survives power loss. A crash at any point leaves either the old file,
// the new file, or a "."-prefixed staging orphan — never a torn write.
// It is the one atomic-write primitive every artifact writer in the repo
// (checkpoint units, manifests, campaign summaries) routes through.
func WriteFileAtomic(path string, data []byte) error {
	dir, name := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp := filepath.Join(dir, "."+name+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory, making a just-committed rename durable.
// Without it a power loss can forget the rename while remembering the
// staged bytes — the "complete file in a directory that never heard of
// it" failure mode.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("checkpoint: syncing %s: %w", dir, err)
	}
	return nil
}

// SyncTree fsyncs every regular file and directory under root, bottom
// up. It is the staging half of the directory-grain commit protocol:
// write a tree, SyncTree it, rename it into place, SyncDir the parent —
// after which the rename target is guaranteed to hold complete files
// even across power loss. File syncs fan out over a small worker pool:
// a day snapshot holds one file per router and serial fsync would make
// durability O(peers) in disk round-trips.
func SyncTree(root string) error {
	var files []string
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			dirs = append(dirs, path)
		} else if d.Type().IsRegular() {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("checkpoint: syncing tree %s: %w", root, err)
	}
	workers := min(8, max(1, len(files)))
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	next := make(chan string, len(files))
	for _, f := range files {
		next <- f
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for path := range next {
				f, err := os.Open(path)
				if err == nil {
					err = f.Sync()
					if cerr := f.Close(); err == nil {
						err = cerr
					}
				}
				if err != nil {
					errOnce.Do(func() { firstErr = fmt.Errorf("checkpoint: syncing %s: %w", path, err) })
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	// Directories last, deepest first, so a directory's entries are
	// durable before the directory itself is.
	for i := len(dirs) - 1; i >= 0; i-- {
		if err := SyncDir(dirs[i]); err != nil {
			return err
		}
	}
	return nil
}

func mustJSON(v any) []byte {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		panic(err) // Manifest is a fixed struct of scalars; cannot fail
	}
	return data
}

// Hasher folds config fields into the Manifest's ConfigHash (FNV-1a
// 64-bit). Engines hash every output-shaping field in a fixed order;
// Workers is deliberately never hashed — width does not change output,
// so a run may resume at a different width.
type Hasher struct {
	h uint64
}

// NewHasher returns a Hasher at the FNV-1a offset basis.
func NewHasher() *Hasher { return &Hasher{h: 14695981039346656037} }

func (h *Hasher) byte(b byte) {
	h.h ^= uint64(b)
	h.h *= 1099511628211
}

// Uint64 folds v.
func (h *Hasher) Uint64(v uint64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(v >> (8 * i)))
	}
}

// Int folds v.
func (h *Hasher) Int(v int) { h.Uint64(uint64(v)) }

// String folds s length-prefixed, so ("ab","c") and ("a","bc") differ.
func (h *Hasher) String(s string) {
	h.Int(len(s))
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

// Sum returns the hash accumulated so far.
func (h *Hasher) Sum() uint64 { return h.h }
