package measure

import (
	"context"
	"strings"
	"sync"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/obs"
)

// withObs enables a fresh registry (and optionally a tracer buffer) for
// the test's duration, restoring the previous globals after.
func withObs(t *testing.T, trace bool) (*obs.Registry, *strings.Builder) {
	t.Helper()
	prevReg, prevTr := obs.Active(), obs.ActiveTracer()
	r := obs.NewRegistry()
	obs.Enable(r)
	var buf *strings.Builder
	if trace {
		buf = &strings.Builder{}
		obs.EnableTrace(obs.NewTracer(buf))
	}
	t.Cleanup(func() {
		obs.Enable(prevReg)
		obs.EnableTrace(prevTr)
	})
	return r, buf
}

func TestFanOutCountsSerialTasks(t *testing.T) {
	r, _ := withObs(t, false)
	err := FanOut(context.Background(), 5, 1, func(i int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	text := r.RenderText()
	if !strings.Contains(text, `i2p_engine_tasks_total{mode="serial"} 5`) {
		t.Errorf("serial task count wrong:\n%s", text)
	}
}

func TestFanOutCountsParallelTasks(t *testing.T) {
	r, buf := withObs(t, true)
	// Task 0 blocks until every other task is done, so both workers run
	// tasks and both tracks carry spans.
	var others sync.WaitGroup
	others.Add(3)
	err := FanOut(context.Background(), 4, 2, func(i int) error {
		if i == 0 {
			others.Wait()
			return nil
		}
		others.Done()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	text := r.RenderText()
	if !strings.Contains(text, `i2p_engine_tasks_total{mode="parallel"} 4`) {
		t.Errorf("parallel task count wrong:\n%s", text)
	}
	// One worker held task 0, so the other ran the remaining three.
	if !strings.Contains(text, `i2p_engine_worker_tasks_bucket{le="1"} 1`) ||
		!strings.Contains(text, `i2p_engine_worker_tasks_count 2`) {
		t.Errorf("per-worker task histogram wrong:\n%s", text)
	}
	if n := strings.Count(buf.String(), `"name":"task"`); n != 4 {
		t.Errorf("trace has %d task spans, want 4:\n%s", n, buf.String())
	}
}

func TestObservabilityDisabledFanOutStillWorks(t *testing.T) {
	prevReg, prevTr := obs.Active(), obs.ActiveTracer()
	obs.Enable(nil)
	obs.EnableTrace(nil)
	t.Cleanup(func() {
		obs.Enable(prevReg)
		obs.EnableTrace(prevTr)
	})
	got := make([]int, 16)
	err := FanOut(context.Background(), 16, 4, func(i int) error {
		got[i] = i * i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("slot %d = %d", i, v)
		}
	}
}
