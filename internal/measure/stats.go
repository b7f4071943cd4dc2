package measure

import "github.com/i2pstudy/i2pstudy/internal/obs"

// engineStats holds the scheduler's instrument handles. All fields are
// nil-safe, so the zero value is the disabled mode and call sites never
// branch on individual handles.
type engineStats struct {
	tasksSerial   *obs.Counter   // i2p_engine_tasks_total{mode="serial"}
	tasksParallel *obs.Counter   // i2p_engine_tasks_total{mode="parallel"}
	steals        *obs.Counter   // i2p_engine_steals_total
	workerTasks   *obs.Histogram // i2p_engine_worker_tasks: tasks one worker ran in one FanOut
	rowsPlanned   *obs.Counter   // i2p_engine_rows_planned_total
	rowSplits     *obs.Counter   // i2p_engine_row_splits_total
	seamCost      *obs.Counter   // i2p_engine_row_seam_cost_total
}

// workerTasksBounds buckets per-worker run lengths: the interesting
// signal is the spread (a starving worker runs far fewer tasks than its
// initial contiguous run), not fine granularity.
var workerTasksBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

var engineObs = obs.NewLazy(func(r *obs.Registry) engineStats {
	tasks := r.CounterVec("i2p_engine_tasks_total",
		"Tasks executed by the FanOut scheduler, by scheduling mode.", "mode")
	return engineStats{
		tasksSerial:   tasks.With("serial"),
		tasksParallel: tasks.With("parallel"),
		steals: r.Counter("i2p_engine_steals_total",
			"Tasks a FanOut worker claimed from another worker's run."),
		workerTasks: r.Histogram("i2p_engine_worker_tasks",
			"Tasks one worker executed in one parallel FanOut.", workerTasksBounds),
		rowsPlanned: r.Counter("i2p_engine_rows_planned_total",
			"Rows laid out by PlanRows before any cost-based splitting."),
		rowSplits: r.Counter("i2p_engine_row_splits_total",
			"Row segments cut by SplitRows at cost boundaries."),
		seamCost: r.Counter("i2p_engine_row_seam_cost_total",
			"Total estimated seam-replay cost accepted by SplitRows cuts."),
	}
})
