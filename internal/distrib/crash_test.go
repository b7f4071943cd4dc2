package distrib_test

import (
	"context"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/core"
	"github.com/i2pstudy/i2pstudy/internal/measure/enginetest"
)

// TestCrashResume is the distrib sweeps' crash drill, stated through the
// shared harness over the one store a binary resumes, core.Study.RunAll's:
// a run killed at a pool.task crossing — an arms-race cell or a
// whole trust row as often as an experiment — and resumed from its
// checkpoint directory yields Results byte-identical to an uninterrupted
// run, at every ladder width. One study per width is cached (the network
// build dominates); only CheckpointDir changes between runs, which the
// manifest excludes.
func TestCrashResume(t *testing.T) {
	studies := map[int]*core.Study{}
	drill := func(ids ...string) func(testing.TB, string, int) (any, error) {
		return func(t testing.TB, dir string, workers int) (any, error) {
			s, ok := studies[workers]
			if !ok {
				opts := core.DefaultOptions()
				opts.TargetDailyPeers = 1200
				opts.Workers = workers
				var err error
				if s, err = core.NewStudy(opts); err != nil {
					t.Fatal(err)
				}
				studies[workers] = s
			}
			s.Opts.CheckpointDir = dir
			res, err := s.RunAll(context.Background(), ids...)
			if err != nil {
				return nil, err
			}
			return res, nil
		}
	}
	enginetest.CrashResume(t, 2018, []enginetest.CrashCase{
		{
			Name:  "arms-race",
			Point: "pool.task",
			Run:   drill("bridge-distribution", "distribution-enumeration"),
		},
		{
			Name:  "trust-rows",
			Point: "pool.task",
			Run:   drill("trust-distribution"),
		},
	})
}
