package measure

import (
	"context"
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

// runQueue is one worker's contiguous run of task indices, claimable
// from both ends through a single packed atomic word (hi<<32 | lo; the
// run is [lo, hi)). The owner claims from the front, keeping ascending
// index order; idle workers steal from the back. Because both ends CAS
// the same word, front and back claims are linearizable — the two ends
// can never hand out the same task, even when they meet. The padding
// keeps neighboring queues off one cache line, so an owner's claims
// don't false-share with its neighbors'.
type runQueue struct {
	bounds atomic.Uint64
	_      [7]uint64
}

func packBounds(lo, hi uint32) uint64 { return uint64(hi)<<32 | uint64(lo) }

// popFront claims the run's lowest unclaimed index (owner side).
func (q *runQueue) popFront() (int, bool) {
	for {
		b := q.bounds.Load()
		lo, hi := uint32(b), uint32(b>>32)
		if lo >= hi {
			return 0, false
		}
		if q.bounds.CompareAndSwap(b, packBounds(lo+1, hi)) {
			return int(lo), true
		}
	}
}

// popBack claims the run's highest unclaimed index (thief side).
func (q *runQueue) popBack() (int, bool) {
	for {
		b := q.bounds.Load()
		lo, hi := uint32(b), uint32(b>>32)
		if lo >= hi {
			return 0, false
		}
		if q.bounds.CompareAndSwap(b, packBounds(lo, hi-1)) {
			return int(hi - 1), true
		}
	}
}

// FanOut runs fn(i) for every i in [0, n) across a pool of workers,
// stopping at the first error or context cancellation; workers <= 0
// selects one worker per CPU. FanOut is the engine primitive shared by
// ObserveGrid, the experiment runner, and the censor sweep grids (the
// campaign, whose days must fold in order, admits them by window
// instead — see dayWindow): callers obtain worker-count-independent
// results by writing into caller-owned slots indexed by task, never by
// arrival order.
//
// Scheduling is work-stealing: the index space is pre-split into one
// contiguous run per worker, each worker drains its own run front-to-back
// (so low-indexed work starts first within every run), and a worker whose
// run is empty steals from the back of the first victim — scanning in
// worker-index order — with work left. Unlike the historical pre-filled
// channel, an uneven grid (one long row next to many short ones) no
// longer strands idle workers behind a FIFO hand-out; the stolen back
// halves even the load out. The contract is unchanged: any Workers value
// yields byte-identical results, because scheduling decides only *when* a
// task runs, never where its result lands. Task counts must fit in
// int32, which every grid in the repo is orders of magnitude below.
func FanOut(ctx context.Context, n, workers int, fn func(i int) error) error {
	return fanOut(ctx, n, workers, "task", func(_, i int) error { return fn(i) })
}

// fanOut is FanOut's engine: identical scheduling, but fn also receives
// the running worker's index so row engines can attach their spans to
// the right trace track, and every task is wrapped in a spanName span
// when tracing is enabled. Counters and spans record scheduling facts
// only — results still land in caller-owned task-indexed slots, so the
// byte-identical-at-any-Workers contract is untouched by observability.
func fanOut(ctx context.Context, n, workers int, spanName string, fn func(tid, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = resolveWorkers(workers)
	if workers > n {
		workers = n
	}
	// Every completed task is a scheduler boundary the fault injector may
	// target; disabled cost is one atomic load inside faults.Hit.
	inner := fn
	fn = func(tid, i int) error {
		if err := inner(tid, i); err != nil {
			return err
		}
		return faults.Hit("measure.fanout.task")
	}
	st := engineObs.Get()
	tr := obs.ActiveTracer()
	if workers == 1 {
		// Serial fast path: no goroutines, no atomics. This is also the
		// reference path the determinism goldens compare against.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if tr != nil {
				t0 := tr.Now()
				err := fn(0, i)
				tr.Complete(0, spanName, t0, obs.Arg{Key: "i", Val: int64(i)})
				if err != nil {
					return err
				}
				continue
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		st.tasksSerial.Add(uint64(n))
		st.workerTasks.Observe(float64(n))
		return ctx.Err()
	}

	// One contiguous run per worker; the remainder spreads over the first
	// runs so sizes differ by at most one.
	queues := make([]runQueue, workers)
	base, rem := n/workers, n%workers
	for w, lo := 0, 0; w < workers; w++ {
		size := base
		if w < rem {
			size++
		}
		queues[w].bounds.Store(packBounds(uint32(lo), uint32(lo+size)))
		lo += size
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		cancel()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Counter traffic stays off the claim path: tasks and steals
			// accumulate locally and flush once when the worker exits.
			var ran, stolen uint64
			defer func() {
				st.tasksParallel.Add(ran)
				st.steals.Add(stolen)
				st.workerTasks.Observe(float64(ran))
			}()
			for {
				if cctx.Err() != nil {
					return
				}
				t, ok := queues[w].popFront()
				if !ok {
					// Own run drained: steal. Tasks only ever leave
					// queues by being claimed, so a full scan that finds
					// every queue empty means every task is claimed and
					// this worker can exit (claimants finish their own
					// tasks; wg.Wait below holds the door).
					for v := range queues {
						if v == w {
							continue
						}
						if t, ok = queues[v].popBack(); ok {
							stolen++
							if tr != nil {
								tr.Instant(w, "steal",
									obs.Arg{Key: "victim", Val: int64(v)},
									obs.Arg{Key: "i", Val: int64(t)})
							}
							break
						}
					}
					if !ok {
						return
					}
				}
				ran++
				if tr != nil {
					t0 := tr.Now()
					err := fn(w, t)
					tr.Complete(w, spanName, t0, obs.Arg{Key: "i", Val: int64(t)})
					if err != nil {
						fail(err)
						return
					}
					continue
				}
				if err := fn(w, t); err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
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

// Tasks returns the total number of tasks across every row.
func (p RowPlan) Tasks() int {
	n := 0
	for _, row := range p {
		n += len(row)
	}
	return n
}

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

// costOf evaluates a cost estimate for one task: nil means unit cost,
// and estimates are clamped to at least 1 so degenerate models cannot
// produce zero-cost segments.
func costOf(cost func(i int) int, t int) int {
	if cost == nil {
		return 1
	}
	if c := cost(t); c > 1 {
		return c
	}
	return 1
}

// Cost returns the plan's total estimated cost under the given model
// (nil: one unit per task).
func (p RowPlan) Cost(cost func(i int) int) int {
	total := 0
	for _, row := range p {
		for _, t := range row {
			total += costOf(cost, t)
		}
	}
	return total
}

// SplitRows cuts expensive rows into independent contiguous segments at
// cost boundaries, so one long row stops binding a grid's tail latency:
// each segment becomes its own plan row, fanned out (and stolen) like
// any other. cost(i) estimates task i's work (nil: 1 per task). seam(i)
// estimates the extra work a segment pays to rebuild its rolling state
// from scratch when it starts at task i (nil: free) — the sweep engines'
// states are exactly resumable (a fresh state advanced to a task equals
// the rolled-forward one, the property TestTrustSweepResumesAcrossRows
// and the from-scratch blacklist references prove), so a cut changes
// wall-clock and recompute, never bytes.
//
// The greedy walk accumulates cost along each row and cuts where the
// running segment exceeds budget — but only where the seam is worth
// paying: a cut at task t requires seam(t) <= budget/2 (the rebuilt
// state may eat at most half the new segment) and seam(t)+cost(t) <=
// budget (the new segment must fit at all). Rows whose seams are as
// expensive as their prefixes — the trust rows, where resuming replays
// every prior day — therefore never split, falling back to whole-row
// scheduling; cheap-seam rows (a blacklist window rebuild) split freely.
// budget <= 0 returns the plan unchanged.
func (p RowPlan) SplitRows(cost, seam func(i int) int, budget int) RowPlan {
	if budget <= 0 {
		return p
	}
	st := engineObs.Get()
	out := make(RowPlan, 0, len(p))
	for _, row := range p {
		start, acc := 0, 0
		for k, t := range row {
			c := costOf(cost, t)
			if acc+c > budget && k > start {
				sm := 0
				if seam != nil {
					sm = seam(t)
				}
				if sm <= budget/2 && sm+c <= budget {
					out = append(out, row[start:k:k])
					start, acc = k, sm
					st.rowSplits.Inc()
					st.seamCost.Add(uint64(sm))
				}
			}
			acc += c
		}
		out = append(out, row[start:])
	}
	return out
}

// splitOversub is how many cost-budget segments PlanRowsCost aims to
// hand each worker: 2 keeps the per-segment seam overhead bounded while
// still leaving the steal loop slack to even out estimate error.
const splitOversub = 2

// PlanRowsCost is PlanRows with a cost model: rows are built and
// day-sorted identically, then rows whose estimated cost exceeds the
// per-segment budget — the grid's total cost spread over the worker pool
// with a small oversubscription factor — are cut into independent
// segments via SplitRows. The schedule changes; results (task-indexed
// slots, exactly-resumable row state) do not. With one worker the plan
// is returned unsplit: there is nobody to hand the other half to.
func PlanRowsCost(n, rows int, rowOf, key func(i int) int, cost, seam func(i int) int, workers int) RowPlan {
	plan := PlanRows(n, rows, rowOf, key)
	workers = resolveWorkers(workers)
	if workers <= 1 {
		return plan
	}
	budget := (plan.Cost(cost) + workers*splitOversub - 1) / (workers * splitOversub)
	return plan.SplitRows(cost, seam, budget)
}

// FanRows runs fn(row, task) for every task of every row across the
// worker pool: rows fan out like FanOut tasks (contiguous runs with
// back-stealing) and each row's tasks run sequentially in listed order
// on a single worker, so per-row state needs no locking. The determinism
// contract is FanOut's — callers write results into caller-owned slots
// indexed by task, never by arrival order, and any workers value yields
// byte-identical output. The first error (or context cancellation) stops
// the remaining rows; rows in flight stop after their current task.
func FanRows(ctx context.Context, plan RowPlan, workers int, fn func(row, task int) error) error {
	var failed atomic.Bool
	return fanOut(ctx, len(plan), workers, "row", func(tid, r int) error {
		tr := obs.ActiveTracer()
		for _, t := range plan[r] {
			// Another row already failed (FanOut holds its error) or the
			// caller cancelled: abandon the rest of this row.
			if failed.Load() {
				return nil
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			if tr != nil {
				c0 := tr.Now()
				err := fn(r, t)
				tr.Complete(tid, "cell", c0,
					obs.Arg{Key: "row", Val: int64(r)},
					obs.Arg{Key: "task", Val: int64(t)})
				if err != nil {
					failed.Store(true)
					return err
				}
				continue
			}
			if err := fn(r, t); err != nil {
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
