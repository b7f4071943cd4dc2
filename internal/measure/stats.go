package measure

import "github.com/i2pstudy/i2pstudy/internal/obs"

// engineStats holds the scheduler's instrument handles. All fields are
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
		"Tasks executed by the FanOut scheduler, by scheduling mode.", "mode")
	return engineStats{
		tasksSerial:   tasks.With("serial"),
		tasksParallel: tasks.With("parallel"),
		workerTasks: r.Histogram("i2p_engine_worker_tasks",
			"Tasks one worker executed in one FanOut.", workerTasksBounds),
	}
})
