// Package faults is a deterministic fault injector for the crash-resume
// harness: engines call Hit at their task/row/cell boundaries, and an
// enabled Injector makes the Nth crossing of a named point fail — as a
// returned error, a panic, or a hard process exit — so "the campaign
// died at cell 1234" becomes a reproducible, seeded test input instead
// of an operational anecdote.
//
// The wiring mirrors internal/obs: one process-global Enable switch
// behind an atomic pointer, so the disabled hot-path cost of a Hit is a
// single atomic load and a nil check. Injection is counting-based, not
// time-based — every crossing of a point increments that point's
// counter, and an armed injection fires exactly when the counter
// reaches its N — which keeps crash points deterministic per (point, N)
// even though *which* cell is the Nth crossing may depend on worker
// scheduling. The crash-resume goldens rely on exactly that split: the
// crash point is part of the seeded input, the recovered output must be
// byte-identical regardless of which cells happened to finish first.
package faults

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Mode is how an injection fires.
type Mode int

const (
	// Error makes Hit return an injected error, which engines propagate
	// like any task failure — the in-process crash the resume goldens
	// drive.
	Error Mode = iota
	// Panic makes Hit panic, modeling a programming fault inside a
	// worker rather than a clean task error.
	Panic
	// Exit terminates the process with ExitCode without running
	// deferred functions — the kill -9 analogue the crash-resume smoke
	// script drives through the real CLIs.
	Exit
)

// ExitCode is the process exit status of an Exit-mode injection; the
// smoke scripts assert it to distinguish an injected crash from a real
// failure.
const ExitCode = 3

// String returns the spec name of the mode (see Parse).
func (m Mode) String() string {
	switch m {
	case Error:
		return "error"
	case Panic:
		return "panic"
	case Exit:
		return "exit"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ErrInjected is the sentinel every Error-mode injection wraps;
// errors.Is(err, ErrInjected) identifies an injected crash.
var ErrInjected = errors.New("faults: injected failure")

// Injection arms one fault: the Nth crossing of Point fires Mode.
type Injection struct {
	// Point names the boundary, e.g. "core.runall.experiment".
	Point string
	// N is the 1-based crossing count that fires. N == 0 never fires
	// (the injector still counts crossings, which is how the harness
	// measures how many boundaries a run has).
	N uint64
	// Mode selects the failure behavior.
	Mode Mode
}

// point is one named boundary's state: a crossing counter plus the
// armed injection, if any.
type point struct {
	hits atomic.Uint64
	n    uint64 // 0: counting only
	mode Mode
}

// Injector counts boundary crossings and fires armed injections. All
// methods are safe for concurrent use by engine workers.
type Injector struct {
	mu     sync.Mutex
	points map[string]*point
	armed  []string // the armed points, sorted and distinct
	// exit is the Exit-mode action, replaceable so the injector's own
	// tests don't take the test binary down with them.
	exit atomic.Pointer[func(int)]
}

// New returns an injector with the given injections armed. An injector
// with no injections counts crossings only — the harness's dry-run
// mode.
func New(injs ...Injection) *Injector {
	in := &Injector{points: make(map[string]*point, len(injs))}
	osExit := os.Exit
	in.exit.Store(&osExit)
	for _, inj := range injs {
		in.point(inj.Point).n = inj.N
		in.point(inj.Point).mode = inj.Mode
		in.armed = append(in.armed, inj.Point)
	}
	slices.Sort(in.armed)
	in.armed = slices.Compact(in.armed)
	return in
}

// point returns (creating if needed) the state for a named boundary.
func (in *Injector) point(name string) *point {
	in.mu.Lock()
	defer in.mu.Unlock()
	p, ok := in.points[name]
	if !ok {
		p = &point{}
		in.points[name] = p
	}
	return p
}

// Hits returns how many times the named point has been crossed while
// this injector was enabled.
func (in *Injector) Hits(name string) uint64 {
	return in.point(name).hits.Load()
}

// hit records one crossing and fires the armed injection when the
// counter reaches its N.
func (in *Injector) hit(name string) error {
	p := in.point(name)
	c := p.hits.Add(1)
	if p.n == 0 || c != p.n {
		return nil
	}
	switch p.mode {
	case Panic:
		panic(fmt.Sprintf("faults: injected panic at %s crossing %d", name, c))
	case Exit:
		fmt.Fprintf(os.Stderr, "faults: injected hard exit at %s crossing %d\n", name, c)
		(*in.exit.Load())(ExitCode)
		return nil // only reachable with a test exit hook
	default:
		return fmt.Errorf("%w: %s crossing %d", ErrInjected, name, c)
	}
}

// active is the process-global injector; nil (the default) disables
// injection entirely.
var active atomic.Pointer[Injector]

// Enable installs in as the process-global injector; nil disables
// injection.
func Enable(in *Injector) { active.Store(in) }

// Hit records one crossing of the named boundary against the enabled
// injector and returns the injected error when an Error-mode injection
// fires there. Disabled cost: one atomic load and a nil check.
func Hit(name string) error {
	in := active.Load()
	if in == nil {
		return nil
	}
	return in.hit(name)
}

// Unfired returns an error for each armed injection of the enabled
// injector whose point the run crossed fewer than N times, in point
// order, so a crash drill aimed at a point it never reaches cannot pass.
func Unfired() error {
	in := active.Load()
	if in == nil {
		return nil
	}
	var errs []error
	for _, name := range in.armed {
		if p := in.point(name); p.hits.Load() < p.n {
			errs = append(errs, fmt.Errorf("-inject %s:%d:%s never fired: the run crossed %s %d times",
				name, p.n, p.mode, name, p.hits.Load()))
		}
	}
	return errors.Join(errs...)
}

// Parse builds an Injection from a CLI spec "point:N:mode", where mode
// is error, panic or exit — e.g. "core.runall.experiment:1:exit".
func Parse(spec string) (Injection, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return Injection{}, fmt.Errorf("faults: spec %q is not point:N:mode", spec)
	}
	n, err := strconv.ParseUint(parts[1], 10, 64)
	if err != nil || n == 0 {
		return Injection{}, fmt.Errorf("faults: spec %q: N must be a positive integer", spec)
	}
	var mode Mode
	switch parts[2] {
	case "error":
		mode = Error
	case "panic":
		mode = Panic
	case "exit":
		mode = Exit
	default:
		return Injection{}, fmt.Errorf("faults: spec %q: mode must be error, panic or exit", spec)
	}
	if parts[0] == "" {
		return Injection{}, fmt.Errorf("faults: spec %q: empty point", spec)
	}
	return Injection{Point: parts[0], N: n, Mode: mode}, nil
}
