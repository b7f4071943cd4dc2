// Package pool is the one worker pool below every engine: the campaign's
// day loop, the experiment runner, the sweep grids, the fleet
// unions, the snapshot fsyncs, the netDb scan and the load generator all
// start their goroutines here. It imports only obs and faults, so every
// layer above them can reach it.
package pool

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/i2pstudy/i2pstudy/internal/faults"
	"github.com/i2pstudy/i2pstudy/internal/obs"
)

// Width is the one width rule: n <= 0 selects one worker per available
// CPU (GOMAXPROCS); any other n is kept.
func Width(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Run runs work(ctx, tid) for tid in [0, workers), a resolved width
// (see Width), and waits for all of them. Each worker returns how many tasks it ran, which the pool adds to
// i2p_engine_tasks_total by its width. One worker runs inline on the
// caller's goroutine under the caller's context. A pool runs under a
// derived context that the first failure cancels; that failure is the
// error returned. A worker that stopped on a cancelled context is a
// bystander: its context error is returned only when no worker failed
// otherwise, because a task may cancel the caller's context before
// returning its own error (core.RunAll stops its in-flight experiments
// that way), and a bystander can record first.
func Run(ctx context.Context, workers int, work func(ctx context.Context, tid int) (int, error)) error {
	tasks := engineObs.Get().tasks(workers)
	if workers == 1 {
		ran, err := work(ctx, 0)
		tasks.Add(uint64(ran))
		return err
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	cancelled := func(err error) bool {
		return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	}
	for tid := 0; tid < workers; tid++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ran, err := work(cctx, tid)
			tasks.Add(uint64(ran))
			if err != nil {
				mu.Lock()
				if firstErr == nil || cancelled(firstErr) && !cancelled(err) {
					firstErr = err
				}
				mu.Unlock()
				cancel()
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// FanOut runs fn(i) for every i in [0, n) across a pool of workers,
// stopping at the first error or context cancellation; workers <= 0
// selects one worker per CPU. FanOut is the one fan-out engine: the
// population figures' fleet days, the experiment runner, the sweep grids
// and the trust sweep's whole rows all run as its tasks (the campaign,
// whose workers each keep a unit buffer and an encode buffer from day
// to day, runs its own ticket loop on Run instead).
// Callers obtain worker-count-independent results by writing into
// caller-owned slots indexed by task, never by arrival order.
//
// Dispatch is one shared ascending ticket: every worker takes the next
// unclaimed index, so tasks start in index order at any width — a grid
// laid out days-outermost warms its per-day memos front to back — and a
// slow task delays only the worker running it. Workers: 1 is the same
// loop run inline, which is the reference the determinism goldens
// compare against. Scheduling decides only when a task runs, never where
// its result lands, so any Workers value yields byte-identical results.
// Every task is a "task" span when tracing is enabled; counters and
// spans record scheduling facts only.
func FanOut(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = min(Width(workers), n)
	st := engineObs.Get()
	tr := obs.ActiveTracer()
	var ticket atomic.Int64
	err := Run(ctx, workers, func(ctx context.Context, tid int) (ran int, _ error) {
		// Counter traffic stays off the claim path: a worker's tasks
		// flush once when it exits.
		defer func() { st.workerTasks.Observe(float64(ran)) }()
		for {
			if err := ctx.Err(); err != nil {
				return ran, err
			}
			i := int(ticket.Add(1)) - 1
			if i >= n {
				return ran, nil
			}
			ran++
			t0 := tr.Now()
			err := fn(i)
			tr.Complete(tid, "task", t0, obs.Arg{Key: "i", Val: int64(i)})
			if err != nil {
				return ran, err
			}
			// Every completed task is a scheduler boundary the fault
			// injector may target.
			if err := faults.Hit("pool.task"); err != nil {
				return ran, err
			}
		}
	})
	if err != nil {
		return err
	}
	return ctx.Err()
}

// engineStats holds the pool's instrument handles. All fields are
// nil-safe, so the zero value is the disabled mode and call sites never
// branch on individual handles.
type engineStats struct {
	tasksSerial   *obs.Counter   // i2p_engine_tasks_total{mode="serial"}
	tasksParallel *obs.Counter   // i2p_engine_tasks_total{mode="parallel"}
	workerTasks   *obs.Histogram // i2p_engine_worker_tasks: tasks one worker ran in one FanOut
}

// tasks returns the task counter for a pool of the given resolved width.
func (s engineStats) tasks(workers int) *obs.Counter {
	if workers == 1 {
		return s.tasksSerial
	}
	return s.tasksParallel
}

// workerTasksBounds buckets per-worker run lengths: the interesting
// signal is the spread (a worker stuck behind one long task runs far
// fewer than its share), not fine granularity.
var workerTasksBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

var engineObs = obs.NewLazy(func(r *obs.Registry) engineStats {
	tasks := r.CounterVec("i2p_engine_tasks_total",
		"Tasks run by internal/pool workers (FanOut tasks and the units each Run worker reports), by scheduling mode.", "mode")
	return engineStats{
		tasksSerial:   tasks.With("serial"),
		tasksParallel: tasks.With("parallel"),
		workerTasks: r.Histogram("i2p_engine_worker_tasks",
			"Tasks one internal/pool worker ran in one FanOut.", workerTasksBounds),
	}
})
