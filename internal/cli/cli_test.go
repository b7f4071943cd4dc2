package cli

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/faults"
)

func TestIDs(t *testing.T) {
	all := []string{"figure-13", "figure-14", "port-blocking"}
	for _, tc := range []struct {
		flag string
		want []string
	}{
		{"", all},
		{"figure-13", []string{"figure-13"}},
		{"figure-13,figure-14", []string{"figure-13", "figure-14"}},
		{"figure-13, figure-14", []string{"figure-13", "figure-14"}},
		{" figure-13 ,\tfigure-14 ", []string{"figure-13", "figure-14"}},
		{"figure-13,", []string{"figure-13"}},
		{",figure-13,,figure-14,", []string{"figure-13", "figure-14"}},
		{" , ", all},
		{"figure-13,figure-13", []string{"figure-13"}},
		{"figure-14, figure-13 ,figure-14", []string{"figure-14", "figure-13"}},
	} {
		f := &Flags{experiment: tc.flag}
		got, err := f.IDs(all)
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("-experiment %q: IDs = %q, %v; want %q", tc.flag, got, err, tc.want)
		}
	}
	for _, flag := range []string{"nope", "figure-13,nope", "figure-13, nope ,figure-14"} {
		f := &Flags{experiment: flag}
		got, err := f.IDs(all)
		if err == nil || !strings.Contains(err.Error(), `unknown experiment "nope"`) || got != nil {
			t.Errorf("-experiment %q: IDs = %q, %v; want the unknown ID refused", flag, got, err)
		}
	}
}

// An -inject whose point the run never crosses N times is an error
// naming the point and its hit count, so a drill cannot pass without
// crashing; once the point fires, the run's own error is the only one.
func TestInjectThatNeverFires(t *testing.T) {
	t.Cleanup(func() {
		faults.Enable(nil)
		armed.inj, armed.in = faults.Injection{}, nil
	})
	f := &Flags{inject: "no.such.point:1:error"}
	_, stop, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	err = unfired()
	if err == nil || !strings.Contains(err.Error(), "no.such.point") || !strings.Contains(err.Error(), "crossed no.such.point 0 times") {
		t.Fatalf("unfired() = %v, want an error naming no.such.point and 0 crossings", err)
	}
	if err := faults.Hit("no.such.point"); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("Hit = %v, want the injected fault", err)
	}
	if err := unfired(); err != nil {
		t.Fatalf("unfired() after the point fired = %v, want nil", err)
	}
}
