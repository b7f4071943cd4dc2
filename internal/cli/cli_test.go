package cli

import (
	"errors"
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
