package pool

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/obs"
)

// TestRunCountsWorkerTasks: the tasks every worker reports land in
// i2p_engine_tasks_total under the pool's mode, a failed worker's too,
// and the failure is what Run returns.
func TestRunCountsWorkerTasks(t *testing.T) {
	prev := obs.Active()
	t.Cleanup(func() { obs.Enable(prev) })
	boom := errors.New("boom")
	for _, c := range []struct {
		workers int
		want    string
	}{{1, `i2p_engine_tasks_total{mode="serial"} 3`}, {3, `i2p_engine_tasks_total{mode="parallel"} 6`}} {
		r := obs.NewRegistry()
		obs.Enable(r)
		err := Run(context.Background(), c.workers, func(_ context.Context, tid int) (int, error) {
			if tid == 0 {
				return 3, boom
			}
			return tid, nil
		})
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: Run = %v, want the worker's failure", c.workers, err)
		}
		if text := r.RenderText(); !strings.Contains(text, c.want) {
			t.Errorf("workers=%d: want %s in\n%s", c.workers, c.want, text)
		}
	}
}
