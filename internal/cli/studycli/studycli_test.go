package studycli

import (
	"slices"
	"strings"
	"testing"
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
