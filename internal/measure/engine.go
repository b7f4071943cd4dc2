package measure

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/i2pstudy/i2pstudy/internal/faults"
	"github.com/i2pstudy/i2pstudy/internal/obs"
)

// resolveWorkers normalizes a worker-count knob: zero or negative selects
// one worker per available CPU.
func resolveWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// runPool runs work(ctx, tid) for tid in [0, workers) and waits for all
// of them: the one place this package starts goroutines. One worker runs
// inline on the caller's goroutine under the caller's context. A pool
// runs under a derived context that the first failure cancels; that
// failure is the error returned. A worker that stopped on a cancelled
// context is a bystander: its context error is returned only when no
// worker failed otherwise, because a task may cancel the caller's
// context before returning its own error (core.RunAll stops its
// in-flight experiments that way), and a bystander can record first.
func runPool(ctx context.Context, workers int, work func(ctx context.Context, tid int) error) error {
	if workers == 1 {
		return work(ctx, 0)
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
			if err := work(cctx, tid); err != nil {
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
// whose days must fold in order, admits them by window instead — see
// dayWindow). Callers obtain worker-count-independent results by writing
// into caller-owned slots indexed by task, never by arrival order.
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
	workers = min(resolveWorkers(workers), n)
	st := engineObs.Get()
	tr := obs.ActiveTracer()
	var ticket atomic.Int64
	err := runPool(ctx, workers, func(ctx context.Context, tid int) error {
		// Counter traffic stays off the claim path: a worker's tasks
		// flush once when it exits.
		var ran uint64
		defer func() {
			st.tasks(workers).Add(ran)
			st.workerTasks.Observe(float64(ran))
		}()
		for {
			if err := ctx.Err(); err != nil {
				return err
			}
			i := int(ticket.Add(1)) - 1
			if i >= n {
				return nil
			}
			ran++
			t0 := tr.Now()
			err := fn(i)
			tr.Complete(tid, "task", t0, obs.Arg{Key: "i", Val: int64(i)})
			if err != nil {
				return err
			}
			// Every completed task is a scheduler boundary the fault
			// injector may target.
			if err := faults.Hit("measure.fanout.task"); err != nil {
				return err
			}
		}
	})
	if err != nil {
		return err
	}
	return ctx.Err()
}
