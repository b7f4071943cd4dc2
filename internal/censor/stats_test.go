package censor

import (
	"context"
	"strings"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/measure/enginetest"
	"github.com/i2pstudy/i2pstudy/internal/obs"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// TestCensorRingsReportCacheTraffic: the censor's memo rings surface in
// the i2p_cache_* families under their declared ring names once a sweep
// touches them.
func TestCensorRingsReportCacheTraffic(t *testing.T) {
	prev := obs.Active()
	r := obs.NewRegistry()
	obs.Enable(r)
	t.Cleanup(func() { obs.Enable(prev) })

	n := network(t)
	c, err := newCensor(n, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVictim(n, 99)
	c.blacklistSet(2, 5, 6)
	v.addrSet(6)
	v.KnownPeers(6)

	text := r.RenderText()
	for _, ring := range []string{"censor_obs_ids", "censor_day_ids", "victim_netdb"} {
		if !strings.Contains(text, `i2p_cache_misses_total{ring="`+ring+`"}`) {
			t.Errorf("ring %q absent from cache families:\n%s", ring, text)
		}
	}
}

// TestSweepCacheMissesDeterministic: a day-indexed memo computes each
// (owner, day) exactly once, so on a fixed grid the miss count per ring
// is the number of distinct (owner, day) pairs the grid touches — the
// same at every ladder width, whichever worker gets to a day first. Each
// width sweeps a network of its own: the day-ID columns belong to the
// network's index, and one an earlier sweep had warmed would miss nothing.
func TestSweepCacheMissesDeterministic(t *testing.T) {
	cfg := SweepConfig{
		Fleets:   []int{2, 5},
		Windows:  []int{1, 4},
		Days:     []int{6, 7, 8, 12, 30}, // 12 slides, 30 jumps past the window
		SeedBase: 9100,
	}
	// Every router serves some cell of every window, so each touches the
	// widest window's days. A monitoring router draws straight into
	// address IDs through the day's column — one column per capture day,
	// whatever the fleet — and the victim builds one netDb view per
	// evaluation day.
	censorDays := len(windowUnionDays(cfg.Days, 4))
	want := map[string]int{
		"censor_obs_ids": 5 * censorDays,
		"censor_day_ids": censorDays,
		"victim_netdb":   len(cfg.Days),
	}
	prev := obs.Active()
	t.Cleanup(func() { obs.Enable(prev) })
	for _, workers := range enginetest.Workers() {
		n, err := sim.New(network(t).Config())
		if err != nil {
			t.Fatal(err)
		}
		r := obs.NewRegistry()
		obs.Enable(r)
		cfg.Workers = workers
		sw, err := NewSweep(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sw.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		text := r.RenderText()
		for ring, misses := range want {
			if got := counterValue(t, text, `i2p_cache_misses_total{ring="`+ring+`"}`); got != misses {
				t.Errorf("Workers=%d ring %s: %d misses, want %d", workers, ring, got, misses)
			}
		}
	}
}

// TestCaptureWarmsObservedIDs: Capture computes every (router, day) ID
// list the sweep's cells fold — Run after it computes none — and leaves
// the victim undrawn: its netDb views build inside Run's cells, one per
// evaluation day.
func TestCaptureWarmsObservedIDs(t *testing.T) {
	prev := obs.Active()
	r := obs.NewRegistry()
	obs.Enable(r)
	t.Cleanup(func() { obs.Enable(prev) })
	misses := func(ring string) int {
		return counterValue(t, r.RenderText(), `i2p_cache_misses_total{ring="`+ring+`"}`)
	}

	cfg := SweepConfig{
		Fleets: []int{2, 5}, Windows: []int{1, 4}, Days: []int{6, 7, 8, 12, 30}, SeedBase: 9100, Workers: 2,
	}
	sw, err := NewSweep(network(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Capture(context.Background()); err != nil {
		t.Fatal(err)
	}
	routerDays := sw.Censor.Routers() * len(sw.captureDays())
	if got := misses("censor_obs_ids"); got != routerDays {
		t.Fatalf("Capture computed %d ID lists, want routers x capture days = %d", got, routerDays)
	}
	if got := misses("victim_netdb"); got != 0 {
		t.Fatalf("Capture built %d victim views, want 0", got)
	}
	if _, err := sw.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := misses("censor_obs_ids"); got != routerDays {
		t.Fatalf("Run computed %d ID lists Capture had not warmed", got-routerDays)
	}
	if got := misses("victim_netdb"); got != len(cfg.Days) {
		t.Fatalf("Run built %d victim views, want one per evaluation day = %d", got, len(cfg.Days))
	}
}

// counterValue extracts one rendered series value.
func counterValue(t *testing.T, text, series string) int {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			n := 0
			for _, ch := range v {
				if ch < '0' || ch > '9' {
					t.Fatalf("series %s has non-integer value %q", series, v)
				}
				n = n*10 + int(ch-'0')
			}
			return n
		}
	}
	t.Fatalf("series %s not rendered:\n%s", series, text)
	return 0
}
