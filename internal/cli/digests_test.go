package cli_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/cli/studycli"
	"github.com/i2pstudy/i2pstudy/internal/core"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.json from this tree's output")

const digestsFile = "testdata/digests.json"

// TestStudyDigests makes "no byte moved" checkable: every registered
// experiment runs through RunAll at DefaultOptions, and the SHA-256 of
// the bytes studycli.WriteResult prints for it must equal its line in
// testdata/digests.json, keyed "seed/experiment". The population and
// ablation experiments also run at the paper's 90-day horizon, keyed
// "seed/d90/experiment", so the census's long tail (Figure 8's peers
// with over a hundred addresses, the horizon-bound churn of Figures 7
// and 12) is pinned too. A bit-compatible change leaves the file byte
// for byte; a declared output change rewrites exactly its experiments'
// lines with -update. Workers 1 runs only without -short; the
// determinism contract makes its digests Workers 0's.
func TestStudyDigests(t *testing.T) {
	workers := []int{0}
	if !testing.Short() {
		workers = append(workers, 1)
	}
	horizons := []struct {
		days   int
		prefix string
		ids    []string // nil: every registered experiment
	}{
		{days: core.DefaultOptions().Days},
		{days: 90, prefix: "d90/", ids: append(core.ExperimentIDs(core.CategoryPopulation), core.ExperimentIDs(core.CategoryAblation)...)},
	}
	got := map[string]string{}
	for _, seed := range []uint64{2018, 424242} {
		for _, h := range horizons {
			for _, w := range workers {
				opts := core.DefaultOptions()
				opts.Seed = seed
				opts.Days = h.days
				opts.Workers = w
				study, err := core.NewStudy(opts)
				if err != nil {
					t.Fatal(err)
				}
				results, err := study.RunAll(context.Background(), h.ids...)
				if err != nil {
					t.Fatalf("seed %d, %d days, workers %d: %v", seed, h.days, w, err)
				}
				for _, res := range results {
					var b bytes.Buffer
					if err := studycli.WriteResult(&b, res); err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256(b.Bytes())
					key := fmt.Sprintf("%d/%s%s", seed, h.prefix, res.ID)
					digest := hex.EncodeToString(sum[:])
					if prev, ok := got[key]; ok && prev != digest {
						t.Errorf("%s: workers %d printed %s, workers 0 %s", key, w, digest, prev)
					}
					got[key] = digest
				}
			}
		}
	}

	checkDigests(t, got, func(key string) bool { return !strings.HasPrefix(key, examplePrefix) })
}

// examplePrefix keys an example program's line in digestsFile.
const examplePrefix = "example/"

// TestExampleDigests extends "no byte moved" to the examples: every
// examples/<name> program is built and run, and the SHA-256 of its
// stdout must equal the "example/<name>" line of testdata/digests.json;
// -update rewrites exactly those lines. The build takes seconds on a
// cold cache, so -short skips it.
func TestExampleDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every example")
	}
	root := filepath.Join("..", "..")
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./examples/...")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	ents, err := os.ReadDir(filepath.Join(root, "examples"))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		out, err := exec.Command(filepath.Join(bin, e.Name())).Output()
		if err != nil {
			t.Fatalf("examples/%s: %v", e.Name(), err)
		}
		sum := sha256.Sum256(out)
		got[examplePrefix+e.Name()] = hex.EncodeToString(sum[:])
	}
	checkDigests(t, got, func(key string) bool { return strings.HasPrefix(key, examplePrefix) })
}

// checkDigests holds got to the lines of digestsFile whose keys owns
// reports, or, with -update, rewrites exactly those lines and keeps the
// others. A key in got without a line, or an owned line got lacks, is
// an error.
func checkDigests(t *testing.T, got map[string]string, owns func(key string) bool) {
	t.Helper()
	want := map[string]string{}
	data, err := os.ReadFile(digestsFile)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("%s: %v", digestsFile, err)
		}
	case !*update || !errors.Is(err, fs.ErrNotExist):
		t.Fatalf("%v (go test ./internal/cli -run Digests -update writes it)", err)
	}
	if *update {
		maps.DeleteFunc(want, func(key, _ string) bool { return owns(key) })
		maps.Copy(want, got)
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestsFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for key, digest := range got {
		switch w, ok := want[key]; {
		case !ok:
			t.Errorf("%s: no line in %s (a new experiment or example? rerun with -update)", key, digestsFile)
		case w != digest:
			t.Errorf("%s: output digest %s, %s says %s", key, digest, digestsFile, w)
		}
	}
	for key := range want {
		if _, ok := got[key]; owns(key) && !ok {
			t.Errorf("%s: in %s but nothing printed it", key, digestsFile)
		}
	}
}
