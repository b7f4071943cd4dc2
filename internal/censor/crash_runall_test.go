package censor_test

import (
	"context"
	"errors"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/checkpoint"
	"github.com/i2pstudy/i2pstudy/internal/core"
	"github.com/i2pstudy/i2pstudy/internal/measure/enginetest"
)

// crashIDs are the experiments that drive the censor sweep's fan-outs:
// Figure 13's recency fold and the bridge-strategy cells.
var crashIDs = []string{"figure-13", "bridge-strategies"}

// newStudy builds a small study; the crash drills share its scale with
// core's own.
func newStudy(t testing.TB, seed uint64, workers int) *core.Study {
	opts := core.DefaultOptions()
	opts.Seed = seed
	opts.TargetDailyPeers = 1200
	opts.Workers = workers
	s, err := core.NewStudy(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCrashResume is the censor sweep's crash drill, stated through the
// shared harness over the one store a binary resumes, core.Study.RunAll's:
// a run killed at a pool.task crossing — inside a sweep's
// fan-out as often as between experiments — and resumed from its
// checkpoint directory yields Results byte-identical to an uninterrupted
// run, at every ladder width. One study per width is cached (the network
// build dominates); only CheckpointDir changes between runs, which the
// manifest excludes.
func TestCrashResume(t *testing.T) {
	studies := map[int]*core.Study{}
	enginetest.CrashResume(t, 2018, []enginetest.CrashCase{{
		Name:  "blocking-grid",
		Point: "pool.task",
		Run: func(t testing.TB, dir string, workers int) (any, error) {
			s, ok := studies[workers]
			if !ok {
				s = newStudy(t, 2018, workers)
				studies[workers] = s
			}
			s.Opts.CheckpointDir = dir
			res, err := s.RunAll(context.Background(), crashIDs...)
			if err != nil {
				return nil, err
			}
			return res, nil
		},
	}})
}

// TestSweepCheckpointMismatchRefused locks the refusal path: a RunAll
// checkpoint directory written under one seed must not resume a study
// with another.
func TestSweepCheckpointMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	s := newStudy(t, 2018, 1)
	s.Opts.CheckpointDir = dir
	if _, err := s.RunAll(context.Background(), "figure-13"); err != nil {
		t.Fatal(err)
	}
	s = newStudy(t, 2019, 1)
	s.Opts.CheckpointDir = dir
	_, err := s.RunAll(context.Background(), "figure-13")
	var mm *checkpoint.MismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("resume under a different seed: err = %v, want *checkpoint.MismatchError", err)
	}
	if mm.Field != "seed" {
		t.Fatalf("MismatchError.Field = %q, want \"seed\"", mm.Field)
	}
}
