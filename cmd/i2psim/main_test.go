package main

import (
	"bytes"
	"flag"
	"io"
	"strings"
	"testing"
)

func TestSummaryDay(t *testing.T) {
	for _, c := range []struct {
		day, days, want int
		ok              bool
	}{
		{-1, 90, 45, true},
		{-1, 45, 22, true},
		{0, 90, 0, true},
		{89, 90, 89, true},
		{90, 90, 0, false},
		{-2, 90, 0, false},
		{-90, 90, 0, false},
	} {
		got, err := summaryDay(c.day, c.days)
		if (err == nil) != c.ok || c.ok && got != c.want {
			t.Errorf("summaryDay(%d, %d) = %d, %v; want %d, ok %v", c.day, c.days, got, err, c.want, c.ok)
		}
	}
}

// TestRunChecksDayFirst asks for more peers than a network holds and a
// day outside the study: the day is refused before the network is built,
// which would refuse the peer count instead.
func TestRunChecksDayFirst(t *testing.T) {
	for _, day := range []string{"-2", "90"} {
		fs := flag.NewFlagSet("i2psim", flag.ContinueOnError)
		err := run(fs, []string{"-peers", "2000000000", "-days", "90", "-day", day}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "day "+day+" outside study horizon 90") {
			t.Errorf("-day %s: err = %v, want the day refused", day, err)
		}
	}
}

func TestRunSummarizesDay(t *testing.T) {
	var out bytes.Buffer
	fs := flag.NewFlagSet("i2psim", flag.ContinueOnError)
	if err := run(fs, []string{"-peers", "300", "-days", "40", "-day", "39"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "day 39 (") || !strings.Contains(out.String(), "floodfill routers:") {
		t.Fatalf("summary:\n%s", out.String())
	}
}
