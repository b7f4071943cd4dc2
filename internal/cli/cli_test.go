package cli

import (
	"slices"
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
	} {
		f := &Flags{experiment: tc.flag}
		if got := f.IDs(all); !slices.Equal(got, tc.want) {
			t.Errorf("-experiment %q: IDs = %q, want %q", tc.flag, got, tc.want)
		}
	}
}
