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
//	i2pcensor [-scale 0.1] [-seed 2018] [-experiment figure-13]
//	i2pcensor -experiment figure-13,figure-14          # comma-separated subset
//	i2pcensor -checkpoint-dir ckpt                     # spill finished experiments
//	i2pcensor -checkpoint-dir ckpt -resume             # continue an interrupted run
//	i2pcensor -cpuprofile cpu.out -memprofile mem.out -experiment figure-13
//	i2pcensor -trace trace.json -experiment figure-13   # Perfetto-loadable spans
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
	"flag"
	"fmt"
	"os"

	"github.com/i2pstudy/i2pstudy/internal/cli"
	"github.com/i2pstudy/i2pstudy/internal/core"
)

func main() { cli.Main("i2pcensor", run) }

func run() error {
	f := cli.Register()
	flag.Parse()
	// The experiment set is derived from the registry's category tags, so
	// newly registered censorship and distribution experiments appear here
	// automatically. A bad -experiment is refused before the network is
	// built.
	ids, err := f.IDs(append(core.ExperimentIDs(core.CategoryCensorship),
		core.ExperimentIDs(core.CategoryDistribution)...))
	if err != nil {
		return err
	}
	ctx, stop, err := f.Start()
	if err != nil {
		return err
	}
	defer stop()

	study, err := f.NewStudy()
	if err != nil {
		return err
	}
	fmt.Printf("network: %d daily peers (scale %.2f), %d days, seed %d\n\n",
		study.Opts.TargetDailyPeers, f.Scale, study.Opts.Days, study.Opts.Seed)

	results, err := study.RunAll(ctx, ids...)
	if err != nil {
		return err
	}
	for _, res := range results {
		if err := cli.WriteResult(os.Stdout, res); err != nil {
			return err
		}
	}
	return nil
}
