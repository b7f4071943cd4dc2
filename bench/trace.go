package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function. Parent is the id of the span that caused it; the root span
// of a pass has Parent 0.
type span struct {
	ID, Parent int
	Name       string
	Tid        int
	Start, End time.Duration // since the recorder started
}

// total is the count and summed duration of every span of one name,
// kept or not.
type total struct {
	N   int
	Dur time.Duration
}

// recorder keeps the spans of one traced pass in memory. A nil recorder
// is "tracing off": its methods run the wrapped call and record nothing,
// so the workloads have one code path for timed and traced iterations.
type recorder struct {
	t0   time.Time
	root int

	mu     sync.Mutex
	spans  []span
	totals map[string]total
}

// newRecorder starts a pass; every span recorded descends from the one
// root span named after the pass.
func newRecorder(pass string) *recorder {
	r := &recorder{t0: time.Now(), totals: map[string]total{}}
	r.root = r.add(0, 0, pass, r.t0, r.t0, true)
	return r
}

// add records one finished span and returns its id. Spans with keep
// false only feed the per-name totals: a million per-request spans are
// aggregated, and every 1000th is kept for the trace file.
func (r *recorder) add(parent, tid int, name string, start, end time.Time, keep bool) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.count1(name, end.Sub(start))
	if !keep {
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Tid: tid,
		Start: start.Sub(r.t0), End: end.Sub(r.t0)})
	return id
}

// count1 adds one span of d to name's total; the caller holds r.mu.
func (r *recorder) count1(name string, d time.Duration) {
	t := r.totals[name]
	t.N++
	t.Dur += d
	r.totals[name] = t
}

// do times fn as a child span of parent and hands fn the new span's id,
// so calls made inside it can name it as their parent. The id is
// reserved before fn runs; children therefore always find their parent.
func (r *recorder) do(parent int, name string, fn func(id int) error) error {
	if r == nil {
		return fn(0)
	}
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name})
	r.mu.Unlock()
	start := time.Now()
	err := fn(id)
	end := time.Now()
	r.mu.Lock()
	r.spans[id-1].Start, r.spans[id-1].End = start.Sub(r.t0), end.Sub(r.t0)
	r.count1(name, end.Sub(start))
	r.mu.Unlock()
	return err
}

// seconds is the summed duration of every span called name.
func (r *recorder) seconds(name string) float64 { return r.totals[name].Dur.Seconds() }

// count is the number of spans called name.
func (r *recorder) count(name string) int { return r.totals[name].N }

// selfTimes returns, per span id, the span's duration minus the part of
// it its direct children cover (overlapping children count once).
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, edge := time.Duration(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// traceEvent is one Chrome trace-event "complete" span, the format
// scripts/tracecheck and Perfetto accept.
type traceEvent struct {
	Ph   string         `json:"ph"`
	Name string         `json:"name"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
}

// write closes the root span and writes the pass as a bare JSON array
// of trace events to path.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	r.spans[r.root-1].End = time.Since(r.t0)
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()

	self := selfTimes(spans)
	events := make([]traceEvent, len(spans))
	for i, s := range spans {
		events[i] = traceEvent{
			Ph: "X", Name: s.Name, Pid: 1, Tid: s.Tid,
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{
				"id": s.ID, "parent": s.Parent, "root": r.root,
				"self_us": float64(self[s.ID].Nanoseconds()) / 1e3,
			},
		}
	}
	data, err := json.Marshal(events)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
