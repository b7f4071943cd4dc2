package cli

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"os/exec"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/faults"
)

// An -inject whose point the run never crosses N times is the error Main
// reports, naming the spec and the point's crossing count, so a drill
// cannot pass without crashing; once the point fires, the run's own
// error is the only one.
func TestInjectThatNeverFires(t *testing.T) {
	t.Cleanup(func() { faults.Enable(nil) })
	if err := faults.Unfired(); err != nil {
		t.Fatalf("Unfired() with no injector = %v, want nil", err)
	}
	inj, err := faults.Parse("no.such.point:1:error")
	if err != nil {
		t.Fatal(err)
	}
	faults.Enable(faults.New(inj))
	const want = "-inject no.such.point:1:error never fired: the run crossed no.such.point 0 times"
	if err := faults.Unfired(); err == nil || err.Error() != want {
		t.Fatalf("Unfired() = %v, want %q", err, want)
	}
	if err := faults.Hit("no.such.point"); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("Hit = %v, want the injected fault", err)
	}
	if err := faults.Unfired(); err != nil {
		t.Fatalf("Unfired() after the point fired = %v, want nil", err)
	}
}

// TestMainExitLineIgnoresSlogDefault: a command that installs a slog
// default (the daemon does) reroutes the standard logger through slog,
// yet Main's exit line stays "name: <err>", the same for an interrupted
// run. Main exits, so each case runs in a child of the test binary.
func TestMainExitLineIgnoresSlogDefault(t *testing.T) {
	if err := os.Getenv("CLI_TEST_MAIN_ERR"); err != "" {
		slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))
		Main("tool", func() error {
			if err == "interrupted" {
				return fmt.Errorf("stopping: %w", context.Canceled)
			}
			return errors.New(err)
		})
		return
	}
	for run, want := range map[string]string{
		"unknown strategy \"nope\"": "tool: unknown strategy \"nope\"\n",
		"interrupted":               "tool: interrupted\n",
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestMainExitLineIgnoresSlogDefault$")
		cmd.Env = append(os.Environ(), "CLI_TEST_MAIN_ERR="+run)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("%s: child exited with %v, want exit status 1", run, err)
		}
		if stderr.String() != want {
			t.Errorf("%s: stderr = %q, want %q", run, stderr.String(), want)
		}
	}
}
