package studycli

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/core"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

func TestIDs(t *testing.T) {
	all := []string{"figure-13", "figure-14", "port-blocking"}
	for _, tc := range []struct {
		flag string
		want []string
	}{
		{"", all},
		{"figure-13", []string{"figure-13"}},
		{"figure-13,figure-14", []string{"figure-13", "figure-14"}},
		{"figure-13, figure-14", []string{"figure-13", "figure-14"}},
		{" figure-13 ,\tfigure-14 ", []string{"figure-13", "figure-14"}},
		{"figure-13,", []string{"figure-13"}},
		{",figure-13,,figure-14,", []string{"figure-13", "figure-14"}},
		{" , ", all},
		{"figure-13,figure-13", []string{"figure-13"}},
		{"figure-14, figure-13 ,figure-14", []string{"figure-14", "figure-13"}},
	} {
		f := &flags{experiment: tc.flag}
		got, err := f.ids(all)
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("-experiment %q: IDs = %q, %v; want %q", tc.flag, got, err, tc.want)
		}
	}
	for _, flag := range []string{"nope", "figure-13,nope", "figure-13, nope ,figure-14"} {
		f := &flags{experiment: flag}
		got, err := f.ids(all)
		if err == nil || !strings.Contains(err.Error(), `unknown experiment "nope"`) || got != nil {
			t.Errorf("-experiment %q: IDs = %q, %v; want the unknown ID refused", flag, got, err)
		}
	}
}

// TestDailyPeers: the study binaries convert -scale through
// sim.ScaledDailyPeers, whose refusal names -scale and both ends of the
// daily-peer range byte for byte.
func TestDailyPeers(t *testing.T) {
	if got, err := sim.ScaledDailyPeers(0.1); err != nil || got != int(0.1*sim.PaperDailyPeers) {
		t.Errorf("-scale 0.1: %d, %v; want %d", got, err, int(0.1*sim.PaperDailyPeers))
	}
	for _, scale := range []float64{math.NaN(), math.Inf(1), -1, 1e300, 1e-9} {
		want := fmt.Sprintf("-scale %v: want a finite scale giving 1 to 2147483647 daily peers", scale)
		if got, err := sim.ScaledDailyPeers(scale); err == nil || err.Error() != want {
			t.Errorf("-scale %v: %d, %v; want %q", scale, got, err, want)
		}
	}
}

// The study binaries' test network: -scale and -days of every run.
const binScale, binDays = 0.02, 40

// buildBinaries builds cmd/i2pmeasure and cmd/i2pcensor into a fresh
// directory on its first call and returns that directory on every call,
// so the tests that run the binaries share one build in any order.
// TestMain removes the directory.
var buildBinaries = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "studycli-bin-")
	if err != nil {
		return "", err
	}
	binDir = dir
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/i2pmeasure", "./cmd/i2pcensor")
	build.Dir = filepath.Join("..", "..", "..")
	if out, err := build.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build: %v\n%s", err, out)
	}
	return dir, nil
})

// binDir is where buildBinaries built, once it has been called.
var binDir string

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// runBinary runs the built study binary name on the test network with
// args and returns its stdout, its stderr and its exit code. The build
// takes seconds on a cold cache, so -short skips the calling test.
func runBinary(t *testing.T, name string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds both study binaries")
	}
	bin, err := buildBinaries()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(filepath.Join(bin, name), append([]string{"-scale", fmt.Sprint(binScale), "-days", fmt.Sprint(binDays)}, args...)...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	var exit *exec.ExitError
	if err := cmd.Run(); errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatalf("%s %q: %v", name, args, err)
	}
	return out.String(), errOut.String(), code
}

// run is runBinary for a run that must succeed.
func run(t *testing.T, name string, args ...string) (stdout, stderr string) {
	t.Helper()
	stdout, stderr, code := runBinary(t, name, args...)
	if code != 0 {
		t.Fatalf("%s %q: exit status %d\n%s", name, args, code, stderr)
	}
	return stdout, stderr
}

// TestBinaries holds cmd/i2pmeasure and cmd/i2pcensor to the one run
// they share: the same -list and the same flags, CSV export and
// flag-order -experiment in both, the two stderr lines, and a default
// stdout that is the network line and then WriteResult of RunAll over
// the binary's categories, in the order it passes them.
func TestBinaries(t *testing.T) {
	binaries := []struct {
		name       string
		categories []string
	}{
		{"i2pmeasure", []string{core.CategoryAblation, core.CategoryPopulation}},
		{"i2pcensor", []string{core.CategoryCensorship, core.CategoryDistribution}},
	}
	var lists, helps []string
	for _, b := range binaries {
		list, _ := run(t, b.name, "-list")
		lists = append(lists, list)
		// -h prints "Usage of <path>:" and then the flags.
		_, help := run(t, b.name, "-h")
		_, flags, _ := strings.Cut(help, "\n")
		helps = append(helps, flags)

		out, _ := run(t, b.name, "-experiment", "figure-05,figure-03")
		if got := regexp.MustCompile(`(?m)^=== ([^:]+):`).FindAllStringSubmatch(out, -1); len(got) != 2 || got[0][1] != "figure-05" || got[1][1] != "figure-03" {
			t.Errorf("%s -experiment figure-05,figure-03 printed %q, want figure-05 then figure-03", b.name, got)
		}

		opts := core.DefaultOptions()
		opts.Days = binDays
		opts.TargetDailyPeers = int(binScale * sim.PaperDailyPeers)
		study, err := core.NewStudy(opts)
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, c := range b.categories {
			ids = append(ids, core.ExperimentIDs(c)...)
		}
		results, err := study.RunAll(context.Background(), ids...)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		fmt.Fprintf(&want, "network: %d daily peers (scale %.2f), %d days, seed %d\n\n", opts.TargetDailyPeers, binScale, binDays, opts.Seed)
		for _, res := range results {
			if err := WriteResult(&want, res); err != nil {
				t.Fatal(err)
			}
		}
		out, stderr := run(t, b.name)
		if out != want.String() {
			t.Errorf("%s stdout is not the network line and WriteResult of RunAll(%q)", b.name, ids)
		}
		if !regexp.MustCompile(fmt.Sprintf(`^\d+ workers\ncompleted %d experiments in \S+\n$`, len(ids))).MatchString(stderr) {
			t.Errorf("%s stderr = %q, want the width and the run time", b.name, stderr)
		}
	}
	if lists[0] != lists[1] || !strings.Contains(lists[0], "figure-13 ") || !strings.Contains(lists[0], "figure-05 ") {
		t.Errorf("-list differs or misses an experiment:\n%s\n%s", lists[0], lists[1])
	}
	if helps[0] != helps[1] {
		t.Errorf("-h lists different flags:\n%s\n%s", helps[0], helps[1])
	}

	csv := t.TempDir()
	out, _ := run(t, "i2pcensor", "-experiment", "figure-13,figure-14", "-csv-dir", csv)
	for _, id := range []string{"figure-13", "figure-14"} {
		path := filepath.Join(csv, id+".csv")
		if data, err := os.ReadFile(path); err != nil || len(data) == 0 || !strings.Contains(out, "wrote "+path+"\n") {
			t.Errorf("i2pcensor -csv-dir: %s: %d bytes, %v; stdout names it: %v", path, len(data), err, strings.Contains(out, path))
		}
	}
}

// TestBinaryCrashResume is the checkpoint layer's crash drill on a real
// process. i2pcensor killed by an injected hard exit (faults Exit mode,
// status 3) after its first committed experiment leaves that unit and
// no staging file; its directory is refused without -resume; and the
// resumed run prints what an uninterrupted run prints. The i2pmeasure
// leg kills the -snapshot-dir campaign after its second committed day
// and compares the snapshot trees too. Last, an -inject the run never
// reaches fails a run that otherwise succeeds, naming the point.
func TestBinaryCrashResume(t *testing.T) {
	exps := []string{"-experiment", "reseed-blocking,port-blocking,dpi-fingerprinting"}
	ref, _ := run(t, "i2pcensor", exps...)
	ckpt := filepath.Join(t.TempDir(), "ckpt")
	resumable := slices.Concat(exps, []string{"-checkpoint-dir", ckpt})
	// Serial, so exactly one unit is on disk when the process dies.
	if _, stderr, code := runBinary(t, "i2pcensor", slices.Concat(resumable, []string{"-workers", "1", "-inject", "core.runall.experiment:1:exit"})...); code != 3 {
		t.Fatalf("injected exit: status %d, want 3\n%s", code, stderr)
	}
	units, _ := filepath.Glob(filepath.Join(ckpt, "exp-*"))
	staged, _ := filepath.Glob(filepath.Join(ckpt, ".*.tmp"))
	if len(units) != 1 || len(staged) != 0 {
		t.Fatalf("crashed run left units %q and staging files %q, want one unit and none", units, staged)
	}
	if _, stderr, code := runBinary(t, "i2pcensor", resumable...); code == 0 || !strings.Contains(stderr, "pass -resume") {
		t.Fatalf("existing checkpoint directory without -resume: status %d, stderr %q; want it refused", code, stderr)
	}
	if got, _ := run(t, "i2pcensor", append(resumable, "-resume")...); got != ref {
		t.Errorf("resumed stdout differs from the uninterrupted run:\n%s\nwant\n%s", got, ref)
	}

	// The campaign keeps its day units under <checkpoint-dir>/campaign.
	// Two workers commit days in any order; the resumed run loads
	// whichever two are on disk and captures the rest.
	dir := t.TempDir()
	measure := []string{"-experiment", "figure-05", "-workers", "2"}
	snapRef, snap := filepath.Join(dir, "snap-ref"), filepath.Join(dir, "snap")
	ref, _ = run(t, "i2pmeasure", append(measure, "-snapshot-dir", snapRef)...)
	resumable = slices.Concat(measure, []string{"-snapshot-dir", snap, "-checkpoint-dir", filepath.Join(dir, "ckpt")})
	if _, stderr, code := runBinary(t, "i2pmeasure", slices.Concat(resumable, []string{"-inject", "measure.campaign.day:2:exit"})...); code != 3 {
		t.Fatalf("campaign injected exit: status %d, want 3\n%s", code, stderr)
	}
	got, _ := run(t, "i2pmeasure", append(resumable, "-resume")...)
	if strings.ReplaceAll(got, snap, "SNAP") != strings.ReplaceAll(ref, snapRef, "SNAP") {
		t.Errorf("resumed campaign stdout differs from the uninterrupted run:\n%s\nwant\n%s", got, ref)
	}
	if got, want := readTree(t, snap), readTree(t, snapRef); !maps.Equal(got, want) {
		t.Errorf("resumed snapshot tree holds %d entries, the uninterrupted run's %d, or their bytes differ", len(got), len(want))
	}

	_, stderr, code := runBinary(t, "i2pcensor", "-experiment", "port-blocking", "-inject", "no.such.point:1:exit")
	if code != 1 || !strings.Contains(stderr, "no.such.point 0 times") {
		t.Errorf("-inject no.such.point:1:exit: status %d, stderr %q; want status 1 naming the point and 0 times", code, stderr)
	}
}

// readTree returns every file and directory under root, keyed by its
// path relative to root: a file's value is its bytes, a directory's "/".
func readTree(t *testing.T, root string) map[string]string {
	t.Helper()
	tree := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			tree[rel] = "/"
			return nil
		}
		data, err := os.ReadFile(path)
		tree[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestBinaryTrace: a traced run leaves a trace checkTrace accepts, and
// so does a traced run that an injected error fails, which also still
// writes its CPU profile. The binaries exit from cli.Main only, after
// the deferred stop has closed the trace and the profiles.
func TestBinaryTrace(t *testing.T) {
	dir := t.TempDir()
	traced := filepath.Join(dir, "figure-13.json")
	run(t, "i2pcensor", "-experiment", "figure-13", "-trace", traced)
	checkTrace(t, traced)

	failed, cpu := filepath.Join(dir, "failed.json"), filepath.Join(dir, "cpu.out")
	if _, stderr, code := runBinary(t, "i2pcensor", "-experiment", "port-blocking", "-trace", failed, "-cpuprofile", cpu, "-inject", "core.runall.experiment:1:error"); code != 1 {
		t.Fatalf("injected error: status %d, want 1\n%s", code, stderr)
	}
	checkTrace(t, failed)
	if fi, err := os.Stat(cpu); err != nil || fi.Size() == 0 {
		t.Errorf("failed run's -cpuprofile: %v, want a non-empty file", err)
	}
}

// checkTrace holds a -trace file to the Chrome trace-event format the
// tracer writes: one JSON array of named events, each a complete span
// ("X") with a pid, a tid and a non-negative ts and dur, an instant
// ("i") with a non-negative ts, or metadata ("M"); and at least one
// span, so a tracer that recorded nothing fails.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Ph   string   `json:"ph"`
		Name string   `json:"name"`
		Pid  *int     `json:"pid"`
		Tid  *int     `json:"tid"`
		Ts   *float64 `json:"ts"`
		Dur  *float64 `json:"dur"`
	}
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("%s: not a JSON event array: %v", path, err)
	}
	badTime := func(v *float64) bool { return v == nil || *v < 0 }
	spans := 0
	for i, e := range events {
		var bad string
		switch {
		case e.Name == "":
			bad = "no name"
		case e.Ph == "X" && (e.Pid == nil || e.Tid == nil):
			bad = "span without pid or tid"
		case e.Ph == "X" && (badTime(e.Ts) || badTime(e.Dur)):
			bad = "span with a missing or negative ts or dur"
		case e.Ph == "i" && badTime(e.Ts):
			bad = "instant with a missing or negative ts"
		case e.Ph != "X" && e.Ph != "i" && e.Ph != "M":
			bad = "unexpected phase"
		}
		if bad != "" {
			t.Errorf("%s: event %d (%q %q): %s", path, i, e.Ph, e.Name, bad)
		}
		if e.Ph == "X" {
			spans++
		}
	}
	if spans == 0 {
		t.Errorf("%s: %d events and no complete span: the tracer recorded nothing", path, len(events))
	}
}
