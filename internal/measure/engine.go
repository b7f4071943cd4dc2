package measure

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/i2pstudy/i2pstudy/internal/faults"
	"github.com/i2pstudy/i2pstudy/internal/obs"
	"github.com/i2pstudy/i2pstudy/internal/sim"
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
// selects one worker per CPU. FanOut is the engine primitive shared by
// ObserveGrid, the experiment runner, and the sweep grids (the campaign,
// whose days must fold in order, admits them by window instead — see
// dayWindow): callers obtain worker-count-independent results by writing
// into caller-owned slots indexed by task, never by arrival order.
//
// Dispatch is one shared ascending ticket: every worker takes the next
// unclaimed index, so tasks start in index order at any width — a grid
// laid out days-outermost warms its per-day memos front to back — and a
// slow task delays only the worker running it. Workers: 1 is the same
// loop run inline, which is the reference the determinism goldens
// compare against. Scheduling decides only when a task runs, never where
// its result lands, so any Workers value yields byte-identical results.
func FanOut(ctx context.Context, n, workers int, fn func(i int) error) error {
	return fanOut(ctx, n, workers, "task", func(_, i int) error { return fn(i) })
}

// fanOut is FanOut's engine: fn also receives the running worker's index
// so row engines can attach their spans to the right trace track, and
// every task is a spanName span when tracing is enabled. Counters and
// spans record scheduling facts only.
func fanOut(ctx context.Context, n, workers int, spanName string, fn func(tid, i int) error) error {
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
			err := fn(tid, i)
			tr.Complete(tid, spanName, t0, obs.Arg{Key: "i", Val: int64(i)})
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

// RowPlan groups task indices into rows for FanRows. Each row is a list
// of task indices that run sequentially in listed order on one worker —
// the unit a rolling computation (a sliding blacklist window, an
// incremental cache walk) carries its state along — while the rows
// themselves fan out across the pool like FanOut tasks. Rows must not
// share task indices; a task listed in no row simply never runs.
type RowPlan [][]int

// PlanRows builds a RowPlan over n tasks: rowOf(i) assigns task i to a
// row in [0, rows); within each row, tasks are stably sorted by
// ascending key(i) — the day coordinate in the sweep engines, so a
// row's rolling state only ever slides forward. Stability keeps
// equal-key tasks in index order, making the schedule (though never the
// results, which land in task-indexed slots) deterministic.
func PlanRows(n, rows int, rowOf, key func(i int) int) RowPlan {
	plan := make(RowPlan, rows)
	for i := 0; i < n; i++ {
		r := rowOf(i)
		plan[r] = append(plan[r], i)
	}
	for _, row := range plan {
		sort.SliceStable(row, func(a, b int) bool { return key(row[a]) < key(row[b]) })
	}
	engineObs.Get().rowsPlanned.Add(uint64(len(plan)))
	return plan
}

// FanRows runs fn(row, task) for every task of every row across the
// worker pool: rows are handed out like FanOut tasks, in plan order, and
// each row's tasks run sequentially in listed order on a single worker,
// so per-row state needs no locking. The determinism contract is
// FanOut's — callers write results into caller-owned slots indexed by
// task, never by arrival order, and any workers value yields
// byte-identical output. The first error (or context cancellation) stops
// the remaining rows; rows in flight stop after their current task.
func FanRows(ctx context.Context, plan RowPlan, workers int, fn func(row, task int) error) error {
	var failed atomic.Bool
	tr := obs.ActiveTracer()
	return fanOut(ctx, len(plan), workers, "row", func(tid, r int) error {
		for _, t := range plan[r] {
			// Another row already failed (fanOut holds its error) or the
			// caller cancelled: abandon the rest of this row.
			if failed.Load() {
				return nil
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			c0 := tr.Now()
			err := fn(r, t)
			tr.Complete(tid, "cell", c0,
				obs.Arg{Key: "row", Val: int64(r)},
				obs.Arg{Key: "task", Val: int64(t)})
			if err != nil {
				failed.Store(true)
				return err
			}
		}
		return nil
	})
}

// ObserveGrid fans the (observer, day) capture grid across a worker pool
// and returns grid[o][d], the peer indexes observers[o] saw on days[d].
// Each ObserveDay draw is deterministic in (observer seed, day), so the
// grid is identical for any worker count — experiments that fold it
// sequentially produce the same figures the serial loops did.
func ObserveGrid(ctx context.Context, observers []*sim.Observer, days []int, workers int) ([][][]int, error) {
	grid := make([][][]int, len(observers))
	for i := range grid {
		grid[i] = make([][]int, len(days))
	}
	if len(days) == 0 {
		return grid, ctx.Err()
	}
	err := FanOut(ctx, len(observers)*len(days), workers, func(t int) error {
		o, d := t/len(days), t%len(days)
		grid[o][d] = observers[o].ObserveDay(days[d])
		return nil
	})
	if err != nil {
		return nil, err
	}
	return grid, nil
}
