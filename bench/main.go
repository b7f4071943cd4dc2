// Command bench measures the four paths the study's binaries exist for
// — the Section 5 census, the Section 6 blocking analysis, the
// checkpointed campaign and the distributor daemon's handout handler —
// end to end and layer by layer, from outside, by timing calls into the
// layers' public functions. README.md is the manual.
//
// Usage (from the repository root; run.sh builds into .bench_build/):
//
//	bash bench/run.sh                                  every workload, one JSON report
//	bash bench/run.sh --workload census --seed 2018 --seconds 15 --trace 0
//	bash bench/run.sh -compare A.json B.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
)

// value is one metric of the contract's result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's result line: the last line a single-workload
// run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// stat is one end-to-end metric of a report: the median and quartiles
// over the timed iterations, and the iterations themselves.
type stat struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func newStat(unit string, xs []float64) stat {
	q1, med, q3 := quartiles(xs)
	return stat{Unit: unit, Median: med, Q1: q1, Q3: q3, N: len(xs), Samples: xs}
}

// workloadReport is one workload's part of a full report. A
// single-workload run prints its half of it (end to end for --trace 0,
// per layer for --trace 1) on the line before the result line.
type workloadReport struct {
	Correct bool `json:"correct"`
	tally
	ErrorRate    float64          `json:"error_rate"`
	OutputDigest string           `json:"output_digest,omitempty"`
	EndToEnd     map[string]stat  `json:"end_to_end,omitempty"`
	PerLayer     map[string]value `json:"per_layer,omitempty"`
	TraceFile    string           `json:"trace_file,omitempty"`
}

// report is what a full run prints and -compare reads.
type report struct {
	Env       env                        `json:"env"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

func main() {
	name := flag.String("workload", "", "run this one workload and print the result line (default: all, one child process each, one report)")
	seed := flag.Uint64("seed", 2018, "seed of the simulated network and the request generators")
	seconds := flag.Float64("seconds", 15, "timed iterations per workload go on until this much time is measured (at least 3 run)")
	trace := flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 runs the traced pass and prints the per-layer metrics")
	out := flag.String("out", "bench/out", "directory for the trace files")
	store := flag.String("store", "", "directory for the durable workload's checkpoint store (default: under -out; a tmpfs such as /dev/shm takes the disk's noise out)")
	compare := flag.Bool("compare", false, "compare two reports: bench -compare A.json B.json")
	peers := flag.Int("peers", 0, "toy size: daily peers of every workload's network (0: the stated sizes); turns the paper-shape gates off")
	requests := flag.Int("requests", 0, "toy size: requests per handout iteration (0: 1000000)")
	iteration := flag.Bool("iteration", false, "internal: run one iteration of -workload and print its measurements")
	flag.Parse()

	p := params{seed: *seed, seconds: *seconds, minIters: 3, out: *out, store: *store, peers: *peers, requests: *requests}
	var err error
	failed := false
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: bench -compare A.json B.json")
			break
		}
		failed, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *name == "":
		failed, err = fullRun(p)
	case *iteration:
		err = iterationRun(*name, p)
	default:
		failed, err = childRun(*name, p, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if failed {
		os.Exit(1)
	}
}

// newWorkload builds the named workload; the returned func releases
// what it holds outside the heap.
func newWorkload(name string, p params) (workload, func(), error) {
	switch name {
	case "census":
		return newCensus(p), func() {}, nil
	case "blocking":
		return newBlocking(p), func() {}, nil
	case "durable":
		d, err := newDurable(p)
		return d, d.close, err
	case "handout":
		return newHandout(p, false), func() {}, nil
	case "handout-mix":
		return newHandout(p, true), func() {}, nil
	}
	return nil, nil, fmt.Errorf("unknown workload %q", name)
}

// iterationRun is a -iteration child: one iteration, one line.
func iterationRun(name string, p params) error {
	w, closeFn, err := newWorkload(name, p)
	if err != nil {
		return err
	}
	defer closeFn()
	return json.NewEncoder(os.Stdout).Encode(iterate(w, nil))
}

// runWorkload runs one workload, timed or traced, and returns its half
// of the report.
func runWorkload(name string, p params, traced bool) (*workloadReport, error) {
	t := &tally{}
	rep := &workloadReport{}
	if traced {
		w, closeFn, err := newWorkload(name, p)
		if err != nil {
			return nil, err
		}
		defer closeFn()
		layers, path, err := tracedRun(w, name, p, t)
		if err != nil {
			return nil, err
		}
		rep.TraceFile = path
		rep.PerLayer = map[string]value{}
		for _, m := range perLayer {
			if !finite(layers[m.Name]) {
				return nil, fmt.Errorf("%s: %s is not a finite number", name, m.Name)
			}
			rep.PerLayer[m.Name] = value{layers[m.Name], m.Unit}
		}
	} else {
		samples, digest, err := timedRun(name, p, t)
		if err != nil {
			return nil, err
		}
		rep.OutputDigest = digest
		rep.EndToEnd = map[string]stat{}
		for _, m := range allEndToEnd() {
			if xs := column(samples, m.Name); len(xs) > 0 {
				rep.EndToEnd[m.Name] = newStat(m.Unit, xs)
			}
		}
	}
	rep.tally = *t
	rep.Correct = t.Failed == 0
	rep.ErrorRate = float64(t.Failed) / float64(max(t.Attempted, 1))
	return rep, nil
}

// resultLine reduces a single-workload report to the contract's line:
// every end-to-end metric for a timed run, every per-layer metric for a
// traced one.
func resultLine(rep *workloadReport, traced bool) result {
	res := result{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]value{}}
	if traced {
		res.Metrics = rep.PerLayer
		return res
	}
	for _, m := range endToEnd {
		res.Metrics[m.Name] = value{rep.EndToEnd[m.Name].Median, m.Unit}
	}
	return res
}

// childRun is a single-workload run: the report half on one line, then
// the result line.
func childRun(name string, p params, traced bool) (failed bool, err error) {
	rep, err := runWorkload(name, p, traced)
	if err != nil {
		return false, err
	}
	for _, f := range rep.Failures {
		fmt.Fprintln(os.Stderr, "bench:", name+":", f)
	}
	for _, v := range []any{rep, resultLine(rep, traced)} {
		line, err := json.Marshal(v)
		if err != nil {
			return false, err
		}
		fmt.Println(string(line))
	}
	return !rep.Correct, nil
}

// fullRun runs every workload timed and then traced, each run in a
// child process of its own — a fresh heap, so peak_rss_mb is that
// workload's — and prints one report.
func fullRun(p params) (failed bool, err error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	doc := report{Env: environment(p), Workloads: map[string]*workloadReport{}}
	for _, w := range workloads {
		var merged *workloadReport
		for _, traced := range []string{"0", "1"} {
			fmt.Fprintf(os.Stderr, "bench: %s (trace %s)\n", w.Name, traced)
			cmd := exec.Command(self, append(p.args(w.Name), "-trace", traced)...)
			cmd.Stderr = os.Stderr
			stdout, runErr := cmd.Output()
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			if len(lines) < 2 {
				return false, fmt.Errorf("%s: no report from the child: %v", w.Name, runErr)
			}
			half := &workloadReport{}
			if err := json.Unmarshal(lines[len(lines)-2], half); err != nil {
				return false, fmt.Errorf("%s: %w", w.Name, err)
			}
			if merged == nil {
				merged = half
				continue
			}
			merged.Correct = merged.Correct && half.Correct
			merged.add(half.tally)
			merged.ErrorRate = float64(merged.Failed) / float64(max(merged.Attempted, 1))
			merged.PerLayer, merged.TraceFile = half.PerLayer, half.TraceFile
		}
		// Only the metrics this workload measures; the zeros a traced run
		// prints for the other workloads' layers stay out of the report.
		for _, m := range perLayer {
			if !measuredOn(m, w.Name) {
				delete(merged.PerLayer, m.Name)
			}
		}
		doc.Workloads[w.Name] = merged
		failed = failed || !merged.Correct
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return failed, enc.Encode(doc)
}

// finite reports whether v is a number a report can carry.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
