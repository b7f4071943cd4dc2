package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
)

var sharedStudy *Study

func study(t testing.TB) *Study {
	t.Helper()
	if sharedStudy != nil {
		return sharedStudy
	}
	opts := DefaultOptions()
	opts.TargetDailyPeers = 2000 // keep the suite fast
	s, err := NewStudy(opts)
	if err != nil {
		t.Fatal(err)
	}
	sharedStudy = s
	return s
}

func TestNewStudyValidation(t *testing.T) {
	if _, err := NewStudy(Options{Days: 10, TargetDailyPeers: 100}); err == nil {
		t.Fatal("too-short study accepted")
	}
	s, err := NewStudy(Options{Seed: 1, Days: 45, TargetDailyPeers: 500})
	if err != nil {
		t.Fatal(err)
	}
	if s.Opts.MainFleetSize != 20 {
		t.Fatalf("fleet default = %d, want 20", s.Opts.MainFleetSize)
	}
}

func TestScale(t *testing.T) {
	s := study(t)
	want := 2000.0 / 30500.0
	if got := s.Scale(); got < want*0.99 || got > want*1.01 {
		t.Fatalf("scale = %v, want %v", got, want)
	}
}

func TestRegistryComplete(t *testing.T) {
	// Every paper artifact must have an experiment.
	want := []string{
		"figure-02", "figure-03", "figure-04", "figure-05", "figure-06",
		"figure-07", "figure-08", "figure-09", "figure-10", "figure-11",
		"figure-12", "figure-13", "figure-14", "table-01",
		"estimate-floodfill", "reseed-blocking", "bridge-strategies",
		"dpi-fingerprinting", "port-blocking", "eclipse-attack",
		"ablation-observer-mix", "ablation-flood-fanout",
		"bridge-distribution", "distribution-enumeration",
		"trust-distribution",
	}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(got), len(want))
	}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Errorf("experiment %q missing", id)
		}
	}
	// Sorted by ID.
	for i := 1; i < len(got); i++ {
		if got[i-1].ID >= got[i].ID {
			t.Fatal("experiments not sorted")
		}
	}
	// Every experiment documents the paper's expectation.
	for _, e := range got {
		if e.Paper == "" || e.Title == "" {
			t.Errorf("experiment %q lacks title/paper text", e.ID)
		}
		type key struct{ metric, per string }
		seen := map[key]bool{}
		for _, x := range e.Expectations {
			if x.Metric == "" || x.Source == "" || !(x.Lo <= x.Hi) {
				t.Errorf("%s: malformed expectation %+v", e.ID, x)
			}
			k := key{x.Metric, x.Per}
			if seen[k] {
				t.Errorf("%s: expectation %s/%s appears twice", e.ID, x.Metric, x.Per)
			}
			seen[k] = true
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	s := study(t)
	if _, err := s.RunExperiment("figure-99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestMainDatasetCached(t *testing.T) {
	s := study(t)
	a, err := s.MainDataset()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.MainDataset()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("dataset not cached")
	}
}

// TestAllExperimentsRun executes the entire registry once and validates
// the shared invariants: non-empty artifact text and populated metrics.
func TestAllExperimentsRun(t *testing.T) {
	s := study(t)
	for _, e := range Experiments() {
		res, err := e.Run(context.Background(), s)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if res.ID != e.ID {
			t.Errorf("%s: result ID %q", e.ID, res.ID)
		}
		if strings.TrimSpace(res.Text) == "" {
			t.Errorf("%s: empty artifact text", e.ID)
		}
		if len(res.Metrics) == 0 {
			t.Errorf("%s: no metrics", e.ID)
		}
		for k, v := range res.Metrics {
			if v != v { // NaN
				t.Errorf("%s: metric %s is NaN", e.ID, k)
			}
		}
	}
}

// TestKeyShapeMetrics holds every experiment's metrics to the paper's
// bounds in its Expectations, end to end at DefaultOptions.
func TestKeyShapeMetrics(t *testing.T) {
	s := study(t)
	for _, e := range Experiments() {
		if len(e.Expectations) == 0 {
			continue
		}
		res, err := e.Run(context.Background(), s)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		for _, x := range e.Expectations {
			if err := checkExpectation(e, res, x); err != nil {
				t.Error(err)
			}
		}
	}
}

// checkExpectation reports whether res meets x. A missing metric, a NaN
// and a zero or missing Per fail: a missing key reads 0, which would
// meet a bound such as ntcp2_detection_rate <= 0.4.
func checkExpectation(e Experiment, res *Result, x Expectation) error {
	name := x.Metric
	v, ok := res.Metrics[x.Metric]
	if x.Per != "" {
		name += " / " + x.Per
		d, hasPer := res.Metrics[x.Per]
		ok = ok && hasPer && d != 0
		v /= d
	}
	switch {
	case !ok:
		return fmt.Errorf("%s: %s missing or divided by 0 (%s; paper: %s)", e.ID, name, x.Source, e.Paper)
	case !(v >= x.Lo && v <= x.Hi): // a NaN fails both
		return fmt.Errorf("%s: %s = %v, want in [%v, %v] (%s; paper: %s)", e.ID, name, v, x.Lo, x.Hi, x.Source, e.Paper)
	}
	return nil
}

func TestCheckExpectation(t *testing.T) {
	e := Experiment{ID: "synthetic", Paper: "the paper's prose"}
	res := &Result{Metrics: map[string]float64{
		"zero": 0, "one": 1, "two": 2, "nan": math.NaN(),
	}}
	above := math.Nextafter(1, math.Inf(1))
	for _, c := range []struct {
		name string
		x    Expectation
		pass bool
	}{
		{"on the lower bound", Expectation{Metric: "one", Lo: 1, Hi: 2}, true},
		{"on the upper bound", Expectation{Metric: "two", Lo: 1, Hi: 2}, true},
		{"a point bound", Expectation{Metric: "one", Lo: 1, Hi: 1}, true},
		{"a ratio in bounds", Expectation{Metric: "one", Per: "two", Lo: 0.5, Hi: 0.5}, true},
		{"missing metric", Expectation{Metric: "absent", Lo: math.Inf(-1), Hi: 0.4}, false},
		{"NaN", Expectation{Metric: "nan", Lo: math.Inf(-1), Hi: math.Inf(1)}, false},
		{"Per equal to 0", Expectation{Metric: "one", Per: "zero", Lo: math.Inf(-1), Hi: math.Inf(1)}, false},
		{"missing Per", Expectation{Metric: "one", Per: "absent", Lo: math.Inf(-1), Hi: math.Inf(1)}, false},
		{"one ulp below Lo", Expectation{Metric: "one", Lo: above, Hi: 2}, false},
		{"one ulp above Hi", Expectation{Metric: "two", Lo: 1, Hi: math.Nextafter(2, 0)}, false},
		{"strict row at its threshold", Expectation{Metric: "one", Lo: above, Hi: math.Inf(1)}, false},
		{"strict ratio at its threshold", Expectation{Metric: "two", Per: "two", Lo: math.Inf(-1), Hi: math.Nextafter(1, 0)}, false},
	} {
		c.x.Source = "Figure 0"
		err := checkExpectation(e, res, c.x)
		switch {
		case c.pass && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case !c.pass && err == nil:
			t.Errorf("%s: passed", c.name)
		case !c.pass && !(strings.Contains(err.Error(), "Figure 0") && strings.Contains(err.Error(), e.Paper)):
			t.Errorf("%s: %q does not name the source and the paper", c.name, err)
		}
	}
}
