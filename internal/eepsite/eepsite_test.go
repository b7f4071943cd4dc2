package eepsite

import (
	"math/rand/v2"
	"net/netip"
	"testing"
	"time"

	"github.com/i2pstudy/i2pstudy/internal/netdb"
)

func testRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seed^77)) }

func candidates(n int) []*netdb.RouterInfo {
	out := make([]*netdb.RouterInfo, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, &netdb.RouterInfo{
			Identity:  netdb.HashFromUint64(uint64(i)),
			Published: time.Date(2018, 2, 1, 0, 0, 0, 0, time.UTC),
			Caps:      netdb.NewCaps(300, false, true),
			Version:   "0.9.34",
			Addresses: []netdb.RouterAddress{{
				Transport: netdb.TransportNTCP,
				Addr:      netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 1}),
				Port:      12000,
			}},
		})
	}
	return out
}

// blockFraction deterministically blocks the given fraction of peers.
func blockFraction(frac float64) func(netdb.Hash) bool {
	return func(h netdb.Hash) bool {
		// Use the first two bytes of the hash as a uniform draw.
		v := float64(uint16(h[0])<<8|uint16(h[1])) / 65535
		return v < frac
	}
}

func TestFetchUnblockedMatchesBaseline(t *testing.T) {
	c := NewClient(candidates(50), nil)
	site := NewSite(netdb.HashFromUint64(999))
	res, err := c.Fetch(site, testRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeout() {
		t.Fatal("unblocked fetch timed out")
	}
	if res.BuildAttempts != 1 {
		t.Fatalf("attempts = %d, want 1", res.BuildAttempts)
	}
	// Base 3.4s + 4 hops x 250ms = 4.4s.
	want := baseLoadTime + 4*250*time.Millisecond
	if res.LoadTime != want {
		t.Fatalf("load = %v, want %v", res.LoadTime, want)
	}
}

func TestFetchFullyBlockedTimesOut(t *testing.T) {
	c := NewClient(candidates(50), func(netdb.Hash) bool { return true })
	site := NewSite(netdb.HashFromUint64(999))
	res, err := c.Fetch(site, testRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Timeout() {
		t.Fatal("fully blocked fetch succeeded")
	}
	if res.StatusCode != 504 {
		t.Fatalf("status = %d, want 504", res.StatusCode)
	}
	if res.LoadTime != pageBudget {
		t.Fatalf("timeout load = %v, want budget %v", res.LoadTime, pageBudget)
	}
	// With a 60s budget, 10s build timeout and 3.4s base: at most 6
	// attempts fit.
	if res.BuildAttempts > 6 {
		t.Fatalf("attempts = %d", res.BuildAttempts)
	}
}

func TestFetchNoCandidates(t *testing.T) {
	c := NewClient(nil, nil)
	if _, err := c.Fetch(NewSite(netdb.HashFromUint64(1)), testRNG(3)); err != ErrNoCandidates {
		t.Fatalf("err = %v, want ErrNoCandidates", err)
	}
}

// TestFigure14Shape reproduces the usability collapse: ~0% timeouts
// unblocked; heavy latency and ~40% timeouts at 65%; >60% at 70–90%;
// 95–100% above 90%.
func TestFigure14Shape(t *testing.T) {
	site := NewSite(netdb.HashFromUint64(999))
	cands := candidates(400)
	crawl := func(rate float64, seed uint64) CrawlStats {
		c := NewClient(cands, blockFraction(rate))
		st, err := c.Crawl(site, 200, testRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		st.BlockingRate = rate
		return st
	}

	unblocked := crawl(0, 1)
	if unblocked.TimeoutPct() > 1 {
		t.Fatalf("unblocked timeout%% = %.1f", unblocked.TimeoutPct())
	}
	if unblocked.MeanLoad > 5*time.Second {
		t.Fatalf("unblocked mean load = %v, want ~3.4–4.4s", unblocked.MeanLoad)
	}

	at65 := crawl(0.65, 2)
	if at65.TimeoutPct() < 25 || at65.TimeoutPct() > 65 {
		t.Fatalf("65%% blocking timeout%% = %.1f, want ~40%%", at65.TimeoutPct())
	}
	if at65.MeanLoad < 15*time.Second {
		t.Fatalf("65%% blocking mean load = %v, want > 20s", at65.MeanLoad)
	}

	at80 := crawl(0.80, 3)
	if at80.TimeoutPct() < 55 {
		t.Fatalf("80%% blocking timeout%% = %.1f, want > 60%%", at80.TimeoutPct())
	}
	if at80.MeanLoad < 35*time.Second {
		t.Fatalf("80%% blocking mean load = %v, want > 40s", at80.MeanLoad)
	}

	at95 := crawl(0.95, 4)
	if at95.TimeoutPct() < 90 {
		t.Fatalf("95%% blocking timeout%% = %.1f, want 95–100%%", at95.TimeoutPct())
	}

	// Monotonicity of degradation.
	if !(unblocked.TimeoutPct() <= at65.TimeoutPct() &&
		at65.TimeoutPct() <= at80.TimeoutPct() &&
		at80.TimeoutPct() <= at95.TimeoutPct()) {
		t.Fatal("timeout percentage must increase with blocking rate")
	}
	if !(unblocked.MeanLoad < at65.MeanLoad && at65.MeanLoad < at95.MeanLoad) {
		t.Fatal("mean load must increase with blocking rate")
	}
}

func TestCrawlStatsHelpers(t *testing.T) {
	st := CrawlStats{Fetches: 10, Timeouts: 4}
	if st.TimeoutPct() != 40 {
		t.Fatalf("timeout pct = %v", st.TimeoutPct())
	}
	var empty CrawlStats
	if empty.TimeoutPct() != 0 {
		t.Fatal("empty stats should report 0")
	}
}

func TestDefaultFetchConfigMatchesPaper(t *testing.T) {
	if baseLoadTime != 3400*time.Millisecond {
		t.Fatalf("base load = %v, paper measured 3.4s", baseLoadTime)
	}
	if pageBudget <= buildTimeout {
		t.Fatal("budget must exceed one build timeout")
	}
}
