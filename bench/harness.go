package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// params sizes one run. peers and requests are zero for the sizes the
// workload table states; the smoke test shrinks them.
type params struct {
	seed     uint64
	seconds  float64 // timed iterations go on until this much time is measured
	minIters int     // … and at least this many have run
	out      string  // trace files go here
	store    string  // the durable workload's checkpoint store goes here ("": under out)
	peers    int     // toy daily-peer target for every workload; turns the paper-shape gates off
	requests int     // toy request count per handout iteration
}

// peersOr is the daily-peer target of a workload whose stated size is
// full.
func (p params) peersOr(full int) int {
	if p.peers > 0 {
		return p.peers
	}
	return full
}

// clients is the number of closed-loop handout clients: never more than
// the machine has CPUs, so the load generator does not queue on itself.
func clients() int { return min(runtime.NumCPU(), 4) }

// sample is the measurements of one iteration, or the metrics of one
// traced pass, by metric name.
type sample map[string]float64

// workload is one row of the workload table.
type workload interface {
	// setup builds the iteration's inputs from the seed; it is what
	// setup_s times.
	setup() error
	// run does the iteration's measured work — what wall_s times — as
	// child spans of parent.
	run(rec *recorder, parent int) error
	// own derives the workload's own samples from what run left behind.
	// It is called after the iteration's clocks and counters are read,
	// so sorting a million latencies costs the measurement nothing.
	own() sample
	// check verifies the outputs run left behind, one tally operation
	// per thing a user would call a failure, and returns a digest of
	// them ("" when the workload has none to compare).
	check(t *tally) string
	// layers is the second half of the traced pass: it times the
	// workload's layers one public call at a time. ref is an untraced
	// iteration of the same workload.
	layers(rec *recorder, ref sample) (sample, error)
}

// tally counts operations attempted and failed; failed/attempted is the
// run's error_rate.
type tally struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
}

// op counts one operation, failed when err is non-nil.
func (t *tally) op(err error) {
	t.ops(1, 0, "")
	if err != nil {
		t.Failed++
		t.Failures = append(t.Failures, err.Error())
	}
}

// ops counts a batch of operations of which failed failed, described by
// what when any did.
func (t *tally) ops(attempted, failed int, what string) {
	t.Attempted += attempted
	if failed > 0 {
		t.Failed += failed
		t.Failures = append(t.Failures, fmt.Sprintf("%d of %d %s", failed, attempted, what))
	}
}

// add folds another tally into t.
func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	t.Failures = append(t.Failures, o.Failures...)
}

// iteration is what one setup → run → check cycle yields: the line a
// -iteration child prints.
type iteration struct {
	Sample sample `json:"sample"`
	Digest string `json:"digest,omitempty"`
	tally
}

// iterate runs one iteration of w in this process.
func iterate(w workload, rec *recorder) iteration {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	parent := 0
	if rec != nil {
		parent = rec.root
	}

	t0 := time.Now()
	err := rec.do(parent, "setup", func(int) error { return w.setup() })
	t1 := time.Now()
	if err == nil {
		err = rec.do(parent, "run", func(id int) error { return w.run(rec, id) })
	}
	t2 := time.Now()

	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	it := iteration{Sample: sample{
		"setup_s":     t1.Sub(t0).Seconds(),
		"wall_s":      t2.Sub(t1).Seconds(),
		"cpu_s":       cpu1 - cpu0,
		"alloc_mb":    float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		"peak_rss_mb": peakRSSMB(),
	}}
	if err != nil {
		it.op(err)
		return it
	}
	for k, v := range w.own() {
		it.Sample[k] = v
	}
	it.Digest = w.check(&it.tally)
	return it
}

// spawnIteration runs one iteration of the named workload in a child
// process. Every timed iteration is a process of its own, as a CLI run
// or a daemon boot is: the network-keyed caches of the program under
// test (censor.IndexFor, the distrib owner epochs) pin every network a
// process ever built, so iterations sharing a process would each run
// on a larger heap than the one before.
func spawnIteration(name string, p params) (iteration, error) {
	self, err := os.Executable()
	if err != nil {
		return iteration{}, err
	}
	cmd := exec.Command(self, append(p.args(name), "-iteration")...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return iteration{}, fmt.Errorf("%s: iteration child: %w", name, err)
	}
	var it iteration
	if err := json.Unmarshal(stdout, &it); err != nil {
		return iteration{}, fmt.Errorf("%s: iteration child printed %q: %w", name, stdout, err)
	}
	return it, nil
}

// args are the flags that hand p to a child process.
func (p params) args(name string) []string {
	return []string{"-workload", name, "-seed", fmt.Sprint(p.seed), "-seconds", fmt.Sprint(p.seconds),
		"-out", p.out, "-store", p.store, "-peers", fmt.Sprint(p.peers), "-requests", fmt.Sprint(p.requests)}
}

// timedRun is a --trace 0 run: iterations with the recorder off, one
// process each, until p.seconds have been measured. The outputs of every
// iteration must digest to the same value.
func timedRun(name string, p params, t *tally) (samples []sample, digest string, err error) {
	start := time.Now()
	for len(samples) < p.minIters || time.Since(start).Seconds() < p.seconds {
		it, err := spawnIteration(name, p)
		if err != nil {
			return nil, "", err
		}
		t.add(it.tally)
		if digest == "" {
			digest = it.Digest
		}
		t.op(sameDigest(digest, it.Digest))
		samples = append(samples, it.Sample)
	}
	return samples, digest, nil
}

// tracedRun is a --trace 1 run: an untraced iteration in a child (the
// reference the tracing overhead is taken against), the same iteration
// in this process with the recorder on, then the layer-by-layer
// timings. It writes the pass to <out>/<name>.trace.json.
func tracedRun(w workload, name string, p params, t *tally) (layers sample, path string, err error) {
	ref, err := spawnIteration(name, p)
	if err != nil {
		return nil, "", err
	}
	t.add(ref.tally)
	rec := newRecorder(name)
	traced := iterate(w, rec)
	t.add(traced.tally)
	t.op(sameDigest(ref.Digest, traced.Digest))
	if layers, err = w.layers(rec, ref.Sample); err != nil {
		return nil, "", err
	}
	// What the untraced iteration measured itself: the workload's own
	// end-to-end metrics, and layer numbers only a full iteration shows.
	for _, m := range perLayer {
		if v, ok := ref.Sample[m.Name]; ok {
			layers[m.Name] = v
		}
	}
	layers["bench.trace_overhead"] = traced.Sample["wall_s"] / ref.Sample["wall_s"]
	path = filepath.Join(p.out, name+".trace.json")
	return layers, path, rec.write(path)
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// quartiles returns the first quartile, median and third quartile of xs
// as Python's statistics.quantiles(xs, n=4) computes them, so the
// spreads printed here are the ones the acceptance rule is stated in.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// column collects one metric's values across samples.
func column(samples []sample, name string) []float64 {
	var xs []float64
	for _, s := range samples {
		if v, ok := s[name]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

// env is the provenance block: numbers are only comparable between
// runs whose env agrees.
type env struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Revision   string  `json:"revision"`
	Dirty      bool    `json:"dirty"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	MinIters   int     `json:"min_iterations"`
	Clients    int     `json:"handout_clients"`
	Store      string  `json:"durable_store"`
}

func environment(p params) env {
	e := env{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Revision: "unknown", Seed: p.seed, Seconds: p.seconds, MinIters: p.minIters,
		Clients: clients(), Store: storeRoot(p),
	}
	// The commit `git rev-parse HEAD` would print, as the go tool stamped
	// it into the binary; absent when built outside a git checkout.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				e.Revision = kv.Value
			case "vcs.modified":
				e.Dirty = kv.Value == "true"
			}
		}
	}
	return e
}
