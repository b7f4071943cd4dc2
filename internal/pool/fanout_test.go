package pool

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/obs"
)

// TestFanOutRunsEachTaskOnce: the ticket hands every index out exactly
// once, at any pool shape — including more workers than tasks, a single
// inline worker, and the empty grid.
func TestFanOutRunsEachTaskOnce(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 4}, {1, 1}, {1, 8}, {7, 1}, {7, 2}, {7, 7}, {7, 32},
		{100, 3}, {1000, 8}, {1000, 0},
	} {
		counts := make([]int32, tc.n)
		err := FanOut(context.Background(), tc.n, tc.workers, func(i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d workers=%d: %v", tc.n, tc.workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d workers=%d: task %d ran %d times", tc.n, tc.workers, i, c)
			}
		}
	}
}

// TestFanOutUnevenLoad: with task 0 held on a gate until every other
// task has finished, the free workers must get through the rest of the
// index space — no task is reserved for the worker stuck on the slow
// one, so the gated waiter cannot starve the pool.
func TestFanOutUnevenLoad(t *testing.T) {
	const n, workers = 64, 4
	gate := make(chan struct{})
	var done int32
	err := FanOut(context.Background(), n, workers, func(i int) error {
		if i == 0 {
			<-gate
			return nil
		}
		if atomic.AddInt32(&done, 1) == n-1 {
			close(gate)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFanOutHandsOutInIndexOrder: the first tasks a pool of W starts are
// tasks 0..W-1, not one from each W-th of the index space — what lets a
// days-outermost grid warm its per-day memos front to back.
func TestFanOutHandsOutInIndexOrder(t *testing.T) {
	const n, workers = 64, 4
	var (
		mu    sync.Mutex
		first []int
	)
	full := make(chan struct{})
	err := FanOut(context.Background(), n, workers, func(i int) error {
		mu.Lock()
		wait := len(first) < workers
		if wait {
			first = append(first, i)
			if len(first) == workers {
				close(full)
			}
		}
		mu.Unlock()
		if wait {
			<-full // hold every worker until each has started one task
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(first)
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(first, want) {
		t.Fatalf("first tasks started = %v, want %v", first, want)
	}
}

func TestFanOutStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	// One worker: the error stops the walk immediately, so exactly tasks
	// 0..3 run.
	var ran int32
	err := FanOut(context.Background(), 1000, 1, func(i int) error {
		atomic.AddInt32(&ran, 1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("serial err = %v, want boom", err)
	}
	if n := atomic.LoadInt32(&ran); n != 4 {
		t.Fatalf("serial ran %d tasks, want 4", n)
	}
	// Pooled: the first error is the one reported, even when every
	// worker fails — never a bystander's context.Canceled.
	err = FanOut(context.Background(), 100, 4, func(i int) error {
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("pooled err = %v, want boom", err)
	}
}

// TestFanOutReportsRootCauseOverCancellation: a task that cancels the
// caller's context and then fails — how core.RunAll stops its in-flight
// experiments — is the error FanOut returns, even when another worker
// sees the cancellation and stops first.
func TestFanOutReportsRootCauseOverCancellation(t *testing.T) {
	boom := errors.New("boom")
	for trial := range 200 {
		ctx, cancel := context.WithCancel(context.Background())
		started, stopped := make(chan struct{}), make(chan struct{})
		err := FanOut(ctx, 2, 2, func(i int) error {
			if i == 1 {
				close(started)
				<-ctx.Done()
				close(stopped)
				return nil // this worker's next claim sees the cancellation
			}
			<-started
			cancel()
			<-stopped
			return boom
		})
		cancel()
		if !errors.Is(err, boom) {
			t.Fatalf("trial %d: err = %v, want the failing task's boom", trial, err)
		}
	}
}

func TestFanOutCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		err := FanOut(ctx, 8, workers, func(i int) error {
			return fmt.Errorf("task %d ran under a cancelled context", i)
		})
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestFanOutSerialFastPathOrder: workers=1 must run tasks in ascending
// index order on the caller's goroutine — it is the determinism
// goldens' reference path.
func TestFanOutSerialFastPathOrder(t *testing.T) {
	var order []int // unsynchronized: the loop runs inline
	if err := FanOut(context.Background(), 8, 1, func(i int) error {
		order = append(order, i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3, 4, 5, 6, 7}; !reflect.DeepEqual(order, want) {
		t.Fatalf("serial order = %v, want %v", order, want)
	}
}

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
