// Command i2pmeasure runs the paper's measurement experiments (Figures
// 2–12, Table 1, the floodfill population estimate) and the ablation
// studies against a synthetic network and prints the regenerated
// artifacts.
//
// Usage:
//
//	i2pmeasure -list
//	i2pmeasure [-scale 0.1] [-seed 2018] [-days 45] [-workers 0] [-experiment figure-05]
//	i2pmeasure -experiment figure-05 -csv-dir csv -snapshot-dir snaps
//	i2pmeasure -cpuprofile cpu.out -memprofile mem.out -experiment figure-05
//	i2pmeasure -trace trace.json -experiment figure-05   # Perfetto-loadable spans
//
// Without -experiment, every ablation and measurement experiment runs,
// in ID order; comma-separated IDs select a subset, run in the order
// given. Experiments and the campaign engine fan out across -workers
// goroutines (default: one per CPU); stdout is byte-identical for any
// worker count (the worker count and the run time go to stderr).
// Ctrl-C cancels the run cleanly — snapshot day directories are written
// atomically, so an interrupted -snapshot-dir never holds a partial day.
//
// With -checkpoint-dir, finished experiments (and the -snapshot-dir
// campaign's finished days) are spilled to disk; rerunning with -resume
// loads finished units instead of recomputing them and produces
// byte-identical output. A directory holding a previous run's manifest
// is refused without -resume, and state from a different configuration
// is refused with a mismatch error. -inject point:N:mode arms a
// deterministic fault for crash drills (see internal/faults).
package main

import (
	"github.com/i2pstudy/i2pstudy/internal/cli"
	"github.com/i2pstudy/i2pstudy/internal/cli/studycli"
	"github.com/i2pstudy/i2pstudy/internal/core"
)

func main() {
	cli.Main("i2pmeasure", func() error { return studycli.Run(core.CategoryAblation, core.CategoryPopulation) })
}
