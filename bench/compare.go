package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// verdict compares one end-to-end metric of a baseline run A with the
// same metric of a run B. change is how much worse B's median is, as a
// share of A's (negative: better); spread is the wider of the two runs'
// interquartile ranges on the same scale. The metric is unresolved when
// the spread is wider than the bound and the runs' samples overlap: the
// benchmark cannot tell the two apart. Otherwise it is worse when change
// exceeds the bound.
func verdict(m metric, a, b stat) (change, spread float64, word string) {
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	change = sign * (b.Median - a.Median) / a.Median
	spread = max(a.Q3-a.Q1, b.Q3-b.Q1) / a.Median
	overlap := slices.Min(a.Samples) <= slices.Max(b.Samples) && slices.Min(b.Samples) <= slices.Max(a.Samples)
	switch {
	case spread > m.Bound && overlap:
		word = "unresolved"
	case change > m.Bound:
		word = "worse"
	default:
		word = "ok"
	}
	return change, spread, word
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc := &report{}
	if err := json.Unmarshal(data, doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the spread, the change and the bound, and reports failure on any
// "worse" and on any rise in error_rate.
func compareFiles(w io.Writer, pathA, pathB string) (failed bool, err error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	if a.Env != b.Env {
		fmt.Fprintf(w, "note: the runs' env blocks differ; compare like with like\n  A %+v\n  B %+v\n", a.Env, b.Env)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tB median\tunit\tspread\tchange\tbound\t\t")
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil {
			continue
		}
		for _, m := range allEndToEnd() {
			sa, okA := ra.EndToEnd[m.Name]
			sb, okB := rb.EndToEnd[m.Name]
			if !okA || !okB {
				continue
			}
			change, spread, word := verdict(m, sa, sb)
			failed = failed || word == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%s\t%.1f%%\t%+.1f%%\t%.0f%%\t%s\t\n",
				wl.Name, m.Name, sa.Median, sb.Median, m.Unit, 100*spread, 100*change, 100*m.Bound, word)
		}
		word := "ok"
		if rb.ErrorRate > ra.ErrorRate {
			word, failed = "worse", true
		}
		fmt.Fprintf(tw, "%s\terror_rate\t%.4g\t%.4g\tratio\t\t\t0%%\t%s\t\n", wl.Name, ra.ErrorRate, rb.ErrorRate, word)
	}
	return failed, tw.Flush()
}
