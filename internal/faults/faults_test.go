package faults

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// Enable is process-global; serialize tests that install an injector and
// always restore the disabled state.
func enable(t *testing.T, in *Injector) {
	t.Helper()
	Enable(in)
	t.Cleanup(func() { Enable(nil) })
}

func TestDisabledHitIsFreeAndNil(t *testing.T) {
	Enable(nil)
	for i := 0; i < 100; i++ {
		if err := Hit("any.point"); err != nil {
			t.Fatalf("disabled Hit returned %v", err)
		}
	}
}

func TestErrorModeFiresOnNthCrossing(t *testing.T) {
	in := New(Injection{Point: "p", N: 3, Mode: Error})
	enable(t, in)
	for i := 1; i <= 5; i++ {
		err := Hit("p")
		if i == 3 {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("crossing %d: want ErrInjected, got %v", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("crossing %d: unexpected error %v", i, err)
		}
	}
	if got := in.Hits("p"); got != 5 {
		t.Fatalf("Hits = %d, want 5", got)
	}
}

func TestCountingOnlyInjectorNeverFires(t *testing.T) {
	in := New()
	enable(t, in)
	for i := 0; i < 10; i++ {
		if err := Hit("count.me"); err != nil {
			t.Fatalf("counting-only injector fired: %v", err)
		}
	}
	if got := in.Hits("count.me"); got != 10 {
		t.Fatalf("Hits = %d, want 10", got)
	}
	if got := in.Hits("never.seen"); got != 0 {
		t.Fatalf("Hits(unseen) = %d, want 0", got)
	}
}

func TestPanicMode(t *testing.T) {
	in := New(Injection{Point: "boom", N: 1, Mode: Panic})
	enable(t, in)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		if !strings.Contains(fmt.Sprint(r), "injected panic at boom") {
			t.Fatalf("panic value %v", r)
		}
	}()
	Hit("boom")
}

func TestExitModeUsesExitHook(t *testing.T) {
	in := New(Injection{Point: "die", N: 2, Mode: Exit})
	code := -1
	exit := func(c int) { code = c }
	in.exit.Store(&exit)
	enable(t, in)
	if err := Hit("die"); err != nil || code != -1 {
		t.Fatalf("first crossing fired early: err=%v code=%d", err, code)
	}
	if err := Hit("die"); err != nil {
		t.Fatalf("exit mode returned error %v", err)
	}
	if code != ExitCode {
		t.Fatalf("exit code = %d, want %d", code, ExitCode)
	}
}

func TestConcurrentHitsFireExactlyOnce(t *testing.T) {
	in := New(Injection{Point: "race", N: 50, Mode: Error})
	enable(t, in)
	var wg sync.WaitGroup
	var mu sync.Mutex
	fired := 0
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := Hit("race"); err != nil {
					mu.Lock()
					fired++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if fired != 1 {
		t.Fatalf("injection fired %d times, want exactly 1", fired)
	}
	if got := in.Hits("race"); got != 200 {
		t.Fatalf("Hits = %d, want 200", got)
	}
}

func TestParse(t *testing.T) {
	inj, err := Parse("core.runall.experiment:12:exit")
	if err != nil {
		t.Fatal(err)
	}
	want := Injection{Point: "core.runall.experiment", N: 12, Mode: Exit}
	if inj != want {
		t.Fatalf("Parse = %+v, want %+v", inj, want)
	}
	for _, bad := range []string{
		"", "p", "p:1", "p:1:error:x", "p:0:error", "p:-1:error",
		"p:x:error", "p:1:nope", ":1:error",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{Error: "error", Panic: "panic", Exit: "exit", Mode(9): "Mode(9)"} {
		if got := m.String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}
