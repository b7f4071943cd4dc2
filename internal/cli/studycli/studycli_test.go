package studycli

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
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
// sim.ScaledDailyPeers, which keeps the refusal they printed when they
// checked the flag themselves byte for byte.
func TestDailyPeers(t *testing.T) {
	if got, err := sim.ScaledDailyPeers(0.1); err != nil || got != int(0.1*sim.PaperDailyPeers) {
		t.Errorf("-scale 0.1: %d, %v; want %d", got, err, int(0.1*sim.PaperDailyPeers))
	}
	for _, scale := range []float64{math.NaN(), math.Inf(1), -1, 1e300} {
		want := fmt.Sprintf("-scale %v: want a finite scale > 0 giving at most 2147483647 daily peers", scale)
		if got, err := sim.ScaledDailyPeers(scale); err == nil || err.Error() != want {
			t.Errorf("-scale %v: %d, %v; want %q", scale, got, err, want)
		}
	}
}

// TestBinaries builds cmd/i2pmeasure and cmd/i2pcensor and holds them to
// the one run they share: the same -list and the same flags, CSV export
// and flag-order -experiment in both, the two stderr lines, and a default
// stdout that is the network line and then WriteResult of RunAll over
// the binary's categories, in the order it passes them. The build takes
// seconds on a cold cache, so -short skips it.
func TestBinaries(t *testing.T) {
	if testing.Short() {
		t.Skip("builds both study binaries")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/i2pmeasure", "./cmd/i2pcensor")
	build.Dir = filepath.Join("..", "..", "..")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	const scale, days = 0.02, 40
	run := func(name string, args ...string) (stdout, stderr string) {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, name), append([]string{"-scale", fmt.Sprint(scale), "-days", fmt.Sprint(days)}, args...)...)
		var out, errOut bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errOut
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s %q: %v\n%s", name, args, err, errOut.Bytes())
		}
		return out.String(), errOut.String()
	}

	binaries := []struct {
		name       string
		categories []string
	}{
		{"i2pmeasure", []string{core.CategoryAblation, core.CategoryPopulation}},
		{"i2pcensor", []string{core.CategoryCensorship, core.CategoryDistribution}},
	}
	var lists, helps []string
	for _, b := range binaries {
		list, _ := run(b.name, "-list")
		lists = append(lists, list)
		// -h prints "Usage of <path>:" and then the flags.
		_, help := run(b.name, "-h")
		_, flags, _ := strings.Cut(help, "\n")
		helps = append(helps, flags)

		out, _ := run(b.name, "-experiment", "figure-05,figure-03")
		if got := regexp.MustCompile(`(?m)^=== ([^:]+):`).FindAllStringSubmatch(out, -1); len(got) != 2 || got[0][1] != "figure-05" || got[1][1] != "figure-03" {
			t.Errorf("%s -experiment figure-05,figure-03 printed %q, want figure-05 then figure-03", b.name, got)
		}

		opts := core.DefaultOptions()
		opts.Days = days
		opts.TargetDailyPeers = int(scale * sim.PaperDailyPeers)
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
		fmt.Fprintf(&want, "network: %d daily peers (scale %.2f), %d days, seed %d\n\n", opts.TargetDailyPeers, scale, days, opts.Seed)
		for _, res := range results {
			if err := WriteResult(&want, res); err != nil {
				t.Fatal(err)
			}
		}
		out, stderr := run(b.name)
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
	out, _ := run("i2pcensor", "-experiment", "figure-13,figure-14", "-csv-dir", csv)
	for _, id := range []string{"figure-13", "figure-14"} {
		path := filepath.Join(csv, id+".csv")
		if data, err := os.ReadFile(path); err != nil || len(data) == 0 || !strings.Contains(out, "wrote "+path+"\n") {
			t.Errorf("i2pcensor -csv-dir: %s: %d bytes, %v; stdout names it: %v", path, len(data), err, strings.Contains(out, path))
		}
	}
}
