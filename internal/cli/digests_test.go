package cli

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/core"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.json from this tree's output")

const digestsFile = "testdata/digests.json"

// TestStudyDigests makes "no byte moved" checkable: every registered
// experiment runs through RunAll at DefaultOptions, and the SHA-256 of
// the bytes WriteResult prints for it must equal its line in
// testdata/digests.json, keyed "seed/experiment". A bit-compatible change
// leaves the file byte for byte; a declared output change rewrites
// exactly its experiments' lines with -update. Workers 1 runs only
// without -short; the determinism contract makes its digests Workers 0's.
func TestStudyDigests(t *testing.T) {
	workers := []int{0}
	if !testing.Short() {
		workers = append(workers, 1)
	}
	got := map[string]string{}
	for _, seed := range []uint64{2018, 424242} {
		for _, w := range workers {
			opts := core.DefaultOptions()
			opts.Seed = seed
			opts.Workers = w
			study, err := core.NewStudy(opts)
			if err != nil {
				t.Fatal(err)
			}
			results, err := study.RunAll(context.Background())
			if err != nil {
				t.Fatalf("seed %d, workers %d: %v", seed, w, err)
			}
			for _, res := range results {
				var b bytes.Buffer
				if err := WriteResult(&b, res); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(b.Bytes())
				key := fmt.Sprintf("%d/%s", seed, res.ID)
				digest := hex.EncodeToString(sum[:])
				if prev, ok := got[key]; ok && prev != digest {
					t.Errorf("%s: workers %d printed %s, workers 0 %s", key, w, digest, prev)
				}
				got[key] = digest
			}
		}
	}

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestsFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(digestsFile)
	if err != nil {
		t.Fatalf("%v (go test ./internal/cli -run StudyDigests -update writes it)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", digestsFile, err)
	}
	for key, digest := range got {
		switch w, ok := want[key]; {
		case !ok:
			t.Errorf("%s: no line in %s (a new experiment? rerun with -update)", key, digestsFile)
		case w != digest:
			t.Errorf("%s: output digest %s, %s says %s", key, digest, digestsFile, w)
		}
	}
	for key := range want {
		if _, ok := got[key]; !ok {
			t.Errorf("%s: in %s but no registered experiment printed it", key, digestsFile)
		}
	}
}
