// Package prof plumbs runtime/pprof behind the profiling flags the
// command-line tools share (-cpuprofile, -memprofile, -blockprofile,
// -mutexprofile), so scheduler and allocation work on the engines is
// profileable without editing code:
//
//	i2pcensor -cpuprofile cpu.out -memprofile mem.out -experiment figure-13
//	i2pmeasure -blockprofile block.out -mutexprofile mutex.out ...
//	go tool pprof cpu.out
//
// The package is a thin lifecycle wrapper — profiling policy (sample
// rates, label sets) stays with the runtime defaults the pprof tooling
// expects. The one exception is contention profiling: the block and
// mutex profilers are off by default process-wide, so StartOptions sets
// their rates only when the corresponding profile was requested, and
// resets them at stop so a long-lived caller doesn't keep paying the
// sampling cost after the capture.
package prof

import (
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
)

// Options names the profile outputs; any empty path skips that profile.
type Options struct {
	// CPUProfile receives a runtime CPU profile spanning start to stop.
	CPUProfile string
	// MemProfile receives a heap snapshot taken at stop, after a GC.
	MemProfile string
	// BlockProfile receives a blocking-contention profile at stop.
	// Requesting it sets runtime.SetBlockProfileRate(1) for the run.
	BlockProfile string
	// MutexProfile receives a mutex-contention profile at stop.
	// Requesting it sets runtime.SetMutexProfileFraction(1) for the run.
	MutexProfile string
}

// StartOptions starts every requested profile. The returned stop
// function finishes the CPU profile, writes the snapshot profiles,
// restores the contention-sampling rates and joins every failure — call
// it once, on the way out (os.Exit and log.Fatal skip deferred stops,
// which is why the CLIs defer it inside a run() error and exit from one
// site in main).
func StartOptions(opts Options) (stop func() error, err error) {
	var cpuFile *os.File
	if opts.CPUProfile != "" {
		cpuFile, err = os.Create(opts.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	// Contention sampling turns on only when asked for: rate 1 records
	// every event, the right trade for a bounded batch run.
	if opts.BlockProfile != "" {
		runtime.SetBlockProfileRate(1)
	}
	if opts.MutexProfile != "" {
		runtime.SetMutexProfileFraction(1)
	}
	return func() error {
		var errs []error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpuFile.Close())
		}
		if opts.MemProfile != "" {
			// A GC beforehand folds unreachable garbage out of the
			// snapshot, so the profile shows live allocation, not
			// collection timing.
			runtime.GC()
			errs = append(errs, writeLookup("heap", opts.MemProfile))
		}
		if opts.BlockProfile != "" {
			errs = append(errs, writeLookup("block", opts.BlockProfile))
			runtime.SetBlockProfileRate(0)
		}
		if opts.MutexProfile != "" {
			errs = append(errs, writeLookup("mutex", opts.MutexProfile))
			runtime.SetMutexProfileFraction(0)
		}
		return errors.Join(errs...)
	}, nil
}

// writeLookup snapshots one named runtime profile to path.
func writeLookup(name, path string) error {
	p := pprof.Lookup(name)
	if p == nil {
		return nil // unknown profile name: nothing to write
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
