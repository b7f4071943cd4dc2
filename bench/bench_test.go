package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/i2pstudy/i2pstudy/internal/core"
	"github.com/i2pstudy/i2pstudy/internal/measure"
)

// beMain makes the test binary stand in for the benchmark binary: the
// harness re-executes os.Executable() for every timed iteration.
const beMain = "BENCH_TEST_BE_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(beMain) != "" {
		main()
		return
	}
	os.Setenv(beMain, "1")
	os.Exit(m.Run())
}

// contract is BENCHMARK.json.
type contract struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Seconds   int      `json:"run_seconds"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractInStep holds BENCHMARK.json to the tables in metrics.go.
func TestContractInStep(t *testing.T) {
	c := readContract(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, metrics.go %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.Name || c.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json says %+v, metrics.go %+v", i, c.Workloads[i], w)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, metrics.go %d", len(c.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := c.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json says %+v, metrics.go %+v", i, got, m)
		}
	}
	if len(c.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, metrics.go %d", len(c.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range perLayer {
		got := c.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json says %+v, metrics.go %+v", i, got, m)
		}
	}
	for _, m := range append(allEndToEnd(), perLayer[len(ownEndToEnd):]...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
			t.Errorf("metric %q (%q) is outside the contract's alphabet", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("metric %q is named twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better is %q", m.Name, m.Better)
		}
	}
}

// TestSmoke runs every workload at toy size, timed and traced, through
// the same child processes a real run uses.
func TestSmoke(t *testing.T) {
	start := time.Now()
	p := params{seed: 2018, minIters: 1, out: t.TempDir(), peers: 1000, requests: 20000}
	doc := report{Env: environment(p), Workloads: map[string]*workloadReport{}}
	layers := map[string]map[string]value{}
	for _, w := range workloads {
		timed, err := runWorkload(w.Name, p, false)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		traced, err := runWorkload(w.Name, p, true)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		for _, rep := range []*workloadReport{timed, traced} {
			if !rep.Correct || rep.Attempted == 0 {
				t.Errorf("%s: correct=%v attempted=%d failures=%v", w.Name, rep.Correct, rep.Attempted, rep.Failures)
			}
		}
		doc.Workloads[w.Name] = timed
		layers[w.Name] = traced.PerLayer

		// The result lines carry exactly the contract's names.
		line := resultLine(timed, false)
		if len(line.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics on the result line, want %d", w.Name, len(line.Metrics), len(endToEnd))
		}
		for _, m := range endToEnd {
			if v, ok := line.Metrics[m.Name]; !ok || !finite(v.Value) || v.Value <= 0 || v.Unit != m.Unit {
				t.Errorf("%s: end-to-end %s = %+v (present %v)", w.Name, m.Name, v, ok)
			}
		}
		for _, m := range ownEndToEnd {
			if _, ok := timed.EndToEnd[m.Name]; ok != measuredOn(m, w.Name) {
				t.Errorf("%s: %s reported=%v, measured on %q", w.Name, m.Name, ok, m.On)
			}
		}
		line = resultLine(traced, true)
		if len(line.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics on the result line, want %d", w.Name, len(line.Metrics), len(perLayer))
		}
		for _, m := range perLayer {
			v, ok := line.Metrics[m.Name]
			switch {
			case !ok || !finite(v.Value) || v.Unit != m.Unit:
				t.Errorf("%s: per-layer %s = %+v (present %v)", w.Name, m.Name, v, ok)
			case !measuredOn(m, w.Name) && v.Value != 0:
				t.Errorf("%s: per-layer %s = %v, but only %q measure it", w.Name, m.Name, v.Value, m.On)
			}
		}
		checkTrace(t, traced.TraceFile)
	}

	if t.Failed() {
		return
	}

	// The per-layer numbers reconcile where they are built to.
	l := layers["census"]
	sum := l["sim.observe_s"].Value + l["sim.collect_s"].Value + l["measure.merge_fold_s"].Value
	if math.Abs(sum-l["measure.campaign_serial_s"].Value) > 1e-9 {
		t.Errorf("observe+collect+merge_fold = %v, campaign_serial_s = %v", sum, l["measure.campaign_serial_s"].Value)
	}
	if r := l["measure.keep_ratio"].Value; r <= 0 || r >= 1 {
		t.Errorf("keep_ratio = %v", r)
	}
	l = layers["handout"]
	sum = l["service.admit_ns"].Value + l["distrib.serve_ns"].Value + l["service.encode_ns"].Value
	if math.Abs(sum-l["service.handler_ns"].Value) > 1e-6 {
		t.Errorf("admit+serve+encode = %v, handler_ns = %v", sum, l["service.handler_ns"].Value)
	}
	if u := layers["durable"]["checkpoint.units"].Value; u != days {
		t.Errorf("checkpoint.units = %v, want %d", u, days)
	}
	if r := layers["handout-mix"]["service.retired"].Value; r != 2*retireEvents {
		t.Errorf("service.retired = %v, want %d", r, 2*retireEvents)
	}

	// A report compared with itself is all ok.
	path := filepath.Join(t.TempDir(), "report.json")
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var table bytes.Buffer
	failed, err := compareFiles(&table, path, path)
	if err != nil || failed || strings.Contains(table.String(), "worse") || strings.Contains(table.String(), "unresolved") {
		t.Errorf("a report compared with itself: failed=%v err=%v\n%s", failed, err, table.String())
	}
	t.Logf("smoke took %s", time.Since(start).Round(time.Millisecond))
}

// checkTrace parses a trace file and follows every span to its parent.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []traceEvent
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	ids := map[float64]bool{0: true}
	for _, e := range events {
		ids[e.Args["id"].(float64)] = true
	}
	roots := 0
	for _, e := range events {
		if e.Ph != "X" || e.Name == "" || e.Ts < 0 || e.Dur < 0 {
			t.Errorf("%s: malformed span %+v", path, e)
		}
		if !ids[e.Args["parent"].(float64)] {
			t.Errorf("%s: span %q has no parent %v", path, e.Name, e.Args["parent"])
		}
		if e.Args["parent"].(float64) == 0 {
			roots++
		}
	}
	if roots != 1 || len(events) < 3 {
		t.Errorf("%s: %d spans, %d roots", path, len(events), roots)
	}
}

// Each correctness gate, fed a deliberately wrong input.

func TestGateDigest(t *testing.T) {
	results := []*core.Result{{ID: "figure-05", Text: "a table", Metrics: map[string]float64{"x": 1, "y": 2}}}
	first := digestResults(results)
	if err := sameDigest(first, digestResults(results)); err != nil {
		t.Errorf("equal outputs: %v", err)
	}
	results[0].Metrics["y"] = math.Nextafter(2, 3)
	if err := sameDigest(first, digestResults(results)); err == nil {
		t.Error("a metric moved by one ulp and the digest gate passed")
	}
	results[0].Metrics["y"], results[0].Text = 2, "a tab1e"
	if err := sameDigest(first, digestResults(results)); err == nil {
		t.Error("the text changed and the digest gate passed")
	}

	var tl tally
	tl.op(sameDigest(first, "0000"))
	if tl.Failed != 1 || tl.Attempted != 1 {
		t.Errorf("a failed gate left the tally at %+v", tl)
	}
}

func TestGateResume(t *testing.T) {
	if err := sameDataset(measure.NewDataset(0, 3), measure.NewDataset(0, 3)); err != nil {
		t.Errorf("equal datasets: %v", err)
	}
	if err := sameDataset(measure.NewDataset(0, 3), measure.NewDataset(0, 4)); err == nil {
		t.Error("datasets over different day ranges passed the resume gate")
	}
}

func TestGateShapes(t *testing.T) {
	census := func(v float64) []*core.Result {
		return []*core.Result{{ID: "figure-05", Metrics: map[string]float64{"mean_daily_peers": v}}}
	}
	if err := censusShape(census(6300), 6100); err != nil {
		t.Errorf("3%% off target: %v", err)
	}
	if err := censusShape(census(6500), 6100); err == nil {
		t.Error("6.5% off target passed the census gate")
	}
	if err := censusShape(nil, 6100); err == nil {
		t.Error("a result set without figure-05 passed the census gate")
	}
	blocking := func(v float64) []*core.Result {
		return []*core.Result{{ID: "figure-13", Metrics: map[string]float64{"rate_10routers_5day": v}}}
	}
	if err := blockingShape(blocking(97.2), 0); err != nil {
		t.Errorf("97.2%%: %v", err)
	}
	if err := blockingShape(blocking(94.9), 0); err == nil {
		t.Error("94.9% passed the blocking gate")
	}
}

// TestGateHandoutBytes swaps the daemon's handler for ones that break
// byte-identity and the status contract.
func TestGateHandoutBytes(t *testing.T) {
	p := params{seed: 2018, peers: 1000, requests: 5000}
	h := newHandout(p, false)
	if err := h.setup(); err != nil {
		t.Fatal(err)
	}
	real := h.handler
	run := func(handler http.Handler) (tally, string) {
		h.handler = handler
		h.last = h.pass(nil, 0, "", 2, h.requests)
		var tl tally
		return tl, h.check(&tl)
	}

	honest, digest := run(real)
	if honest.Failed != 0 {
		t.Fatalf("the real handler failed %d of %d: %v", honest.Failed, honest.Attempted, honest.Failures)
	}
	if _, again := run(real); again != digest {
		t.Error("two passes over one Service digest differently")
	}

	var n atomic.Int64
	stamped, _ := run(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "response %d", n.Add(1))
	}))
	if stamped.Failed != len(h.bodies) {
		t.Errorf("a handler that never repeats itself failed %d re-requests, want %d", stamped.Failed, len(h.bodies))
	}

	refusing, _ := run(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "slow down", http.StatusTooManyRequests)
	}))
	if want := h.requests + len(h.bodies); refusing.Failed < want {
		t.Errorf("429s for fresh identities failed %d operations, want at least %d", refusing.Failed, want)
	}

	other := newHandout(params{seed: 2019, peers: 1000, requests: 5000}, false)
	if err := other.setup(); err != nil {
		t.Fatal(err)
	}
	other.last = other.pass(nil, 0, "", 2, other.requests)
	if err := sameDigest(digest, other.check(&tally{})); err == nil {
		t.Error("a Service on another seed served the same bytes")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64 // statistics.quantiles(xs, n=4)
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	} {
		q1, med, q3 := quartiles(c.xs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metric{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metric{Name: "rps", Better: "higher", Bound: 0.10}
	st := func(xs ...float64) stat { return newStat("s", xs) }
	for _, c := range []struct {
		m    metric
		a, b stat
		want string
	}{
		{lower, st(1.00, 1.01, 1.02), st(1.00, 1.01, 1.02), "ok"},
		{lower, st(1.00, 1.01, 1.02), st(1.05, 1.06, 1.07), "ok"},
		{lower, st(1.00, 1.01, 1.02), st(1.20, 1.21, 1.22), "worse"},
		{lower, st(1.00, 1.01, 1.02), st(0.50, 0.51, 0.52), "ok"},
		{lower, st(0.80, 1.00, 1.30), st(0.90, 1.25, 1.40), "unresolved"},
		{higher, st(100, 101, 102), st(80, 81, 82), "worse"},
		{higher, st(100, 101, 102), st(120, 121, 122), "ok"},
	} {
		if _, _, got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %v against %v is %q, want %q", c.m.Name, c.a.Samples, c.b.Samples, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	self := selfTimes([]span{
		{ID: 1, Parent: 0, Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Start: 30 * ms, End: 60 * ms}, // overlaps span 2: the shared 10 ms count once
		{ID: 4, Parent: 2, Start: 10 * ms, End: 15 * ms},
	})
	for id, want := range map[int]time.Duration{1: 50 * ms, 2: 25 * ms, 3: 30 * ms, 4: 5 * ms} {
		if self[id] != want {
			t.Errorf("self time of span %d = %s, want %s", id, self[id], want)
		}
	}
}
