// Command i2pcensor runs the paper's censorship-resistance experiments:
// the probabilistic address-based blocking model (Figure 13), the eepsite
// usability evaluation under null-routing (Figure 14), reseed blocking and
// manual reseeding (Section 6.1), the bridge strategies of Section 7.1,
// the DPI fingerprinting study of Section 2.2.2, and the
// bridge-distribution pipeline (rdsys-style distributors vs censor
// enumeration, internal/distrib) — including the Salmon-style
// trust-graph distributor (trust-distribution).
//
// Usage:
//
//	i2pcensor -list
//	i2pcensor [-scale 0.1] [-seed 2018] [-days 45] [-workers 0] [-experiment figure-13]
//	i2pcensor -experiment figure-13,figure-14 -csv-dir csv   # comma-separated subset
//	i2pcensor -snapshot-dir snaps                      # netDb snapshots of days 0-2
//	i2pcensor -checkpoint-dir ckpt                     # spill finished experiments
//	i2pcensor -checkpoint-dir ckpt -resume             # continue an interrupted run
//	i2pcensor -cpuprofile cpu.out -memprofile mem.out -experiment figure-13
//	i2pcensor -trace trace.json -experiment figure-13   # Perfetto-loadable spans
//
// Without -experiment, every censorship and distribution experiment
// runs, in that order and each category in ID order; comma-separated
// IDs run in the order given. stdout is byte-identical for any -workers
// (the worker count and the run time go to stderr).
//
// With -checkpoint-dir, every finished experiment is spilled to the
// directory; rerunning with -resume loads finished units instead of
// recomputing them and produces byte-identical output. A directory
// holding a previous run's manifest is refused without -resume, and
// state from a different configuration (seed, scale, days) is refused
// with a mismatch error. -inject point:N:mode arms a deterministic
// fault for crash drills (see internal/faults).
package main

import (
	"github.com/i2pstudy/i2pstudy/internal/cli"
	"github.com/i2pstudy/i2pstudy/internal/cli/studycli"
	"github.com/i2pstudy/i2pstudy/internal/core"
)

func main() {
	cli.Main("i2pcensor", func() error { return studycli.Run(core.CategoryCensorship, core.CategoryDistribution) })
}
