package censor

import (
	"context"
	"strings"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/measure/enginetest"
	"github.com/i2pstudy/i2pstudy/internal/obs"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

func TestWindowCounterPoolCounters(t *testing.T) {
	prev := obs.Active()
	r := obs.NewRegistry()
	obs.Enable(r)
	t.Cleanup(func() { obs.Enable(prev) })

	n := network(t)
	ix := IndexFor(n)
	wc := ix.NewWindowCounter()
	ix.ReleaseWindowCounter(wc)
	wc2 := ix.NewWindowCounter()
	ix.ReleaseWindowCounter(wc2)

	text := r.RenderText()
	// gets and puts are exact; news depends on whether the shared pool
	// held a counter from an earlier test (and on GC clearing it), so it
	// is only bounded by the acquisitions.
	gets := counterValue(t, text, `i2p_windowcounter_pool_total{op="get"}`)
	puts := counterValue(t, text, `i2p_windowcounter_pool_total{op="put"}`)
	news := counterValue(t, text, `i2p_windowcounter_pool_total{op="new"}`)
	if gets != 2 || puts != 2 {
		t.Errorf("gets=%d puts=%d, want 2/2:\n%s", gets, puts, text)
	}
	if news > gets {
		t.Errorf("news=%d exceeds gets=%d:\n%s", news, gets, text)
	}
}

// TestCensorRingsReportCacheTraffic: the censor's memo rings surface in
// the i2p_cache_* families under their declared ring names once a sweep
// touches them.
func TestCensorRingsReportCacheTraffic(t *testing.T) {
	prev := obs.Active()
	r := obs.NewRegistry()
	obs.Enable(r)
	t.Cleanup(func() { obs.Enable(prev) })

	n := network(t)
	c, err := NewCensor(n, 2, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVictim(n, 99)
	c.blockedPeerFunc(2, 5, 6)
	v.addrSet(6)
	v.KnownPeers(6)

	text := r.RenderText()
	for _, ring := range []string{obsIDsRing, dayIDsRing, victimAddrSetRing, victimKnownPeersRing} {
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
	// widest window's days; the victim's netDb reaches one day back. A
	// monitoring router draws straight into address IDs through the
	// day's column — one column per capture day, whatever the fleet —
	// so only the victim's observer memoizes a sighting list.
	censorDays := len(windowUnionDays(cfg.Days, 4))
	victimDays := len(windowUnionDays(cfg.Days, 2))
	want := map[string]int{
		obsIDsRing:           5 * censorDays,
		dayIDsRing:           censorDays,
		"observe_day":        victimDays,
		victimAddrSetRing:    len(cfg.Days),
		victimKnownPeersRing: 0,
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
// list the sweep's cells fold — Run after it misses none — and does so
// without any monitoring router memoizing a sighting list: asked
// afterwards, every censor observer computes each capture day afresh.
func TestCaptureWarmsObservedIDs(t *testing.T) {
	prev := obs.Active()
	r := obs.NewRegistry()
	obs.Enable(r)
	t.Cleanup(func() { obs.Enable(prev) })
	misses := func(ring string) int {
		return counterValue(t, r.RenderText(), `i2p_cache_misses_total{ring="`+ring+`"}`)
	}

	sw, err := NewSweep(network(t), SweepConfig{
		Fleets: []int{2, 5}, Windows: []int{1, 4}, Days: []int{6, 7, 8, 12, 30}, SeedBase: 9100, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Capture(context.Background()); err != nil {
		t.Fatal(err)
	}
	days := sw.captureDays()
	routerDays := sw.Censor.Routers() * len(days)
	captured, observed := misses(obsIDsRing), misses("observe_day")
	if captured != routerDays {
		t.Fatalf("Capture computed %d ID lists, want routers x capture days = %d", captured, routerDays)
	}
	if _, err := sw.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := misses(obsIDsRing); got != captured {
		t.Fatalf("Run computed %d ID lists Capture had not warmed", got-captured)
	}
	if got := misses("observe_day"); got != observed {
		t.Fatalf("Run drew %d sighting lists Capture had not warmed", got-observed)
	}
	for _, o := range sw.Censor.observers {
		for _, d := range days {
			o.ObserveDay(d)
		}
	}
	if got := misses("observe_day") - observed; got != routerDays {
		t.Fatalf("censor observers computed %d of %d days afresh: the rest were memoized by the sweep", got, routerDays)
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
