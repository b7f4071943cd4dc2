package service

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/i2pstudy/i2pstudy/internal/censor"
	"github.com/i2pstudy/i2pstudy/internal/distrib"
	"github.com/i2pstudy/i2pstudy/internal/obs"
	"github.com/i2pstudy/i2pstudy/internal/obs/promtest"
)

// TestMetricsConformance runs the exposition through the structural
// parser instead of string matching: every family carries HELP/TYPE,
// histogram buckets are cumulative with +Inf == _count, no duplicate
// series — after real traffic, probes and pool-gauge refreshes.
func TestMetricsConformance(t *testing.T) {
	svc := newTestService(t, Config{})
	h := svc.Handler()
	get(t, h, "/handout?id=alice", "")
	get(t, h, "/handout?id=bob&dist=manual-reseed", "")
	get(t, h, "/handout", "") // 400: missing id
	svc.metrics.ObserveProbe("ok")

	text := svc.metrics.Render()
	if errs := promtest.Lint(text); len(errs) != 0 {
		t.Fatalf("exposition not conformant: %v\n%s", errs, text)
	}
	fams, err := promtest.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"i2pdistribd_requests_total",
		"i2pdistribd_pool_size",
		"i2pdistribd_probe_total",
		"i2pdistribd_handout_latency_seconds",
		"i2pdistribd_limiter_buckets",
	} {
		if promtest.Find(fams, name) == nil {
			t.Errorf("family %q missing from exposition", name)
		}
	}
	// Every probe outcome renders even at zero, including the dedicated
	// panic label.
	probe := promtest.Find(fams, "i2pdistribd_probe_total")
	seen := map[string]bool{}
	for _, s := range probe.Samples {
		if v, ok := s.Get("outcome"); ok {
			seen[v] = true
		}
	}
	for _, o := range probeOutcomes {
		if !seen[o] {
			t.Errorf("probe outcome %q not rendered", o)
		}
	}
}

// TestSharedRegistryExposesEngineFamilies is the daemon acceptance path:
// a service built on an obs.Enable'd registry serves the engine counter
// families on the same /metrics page as the handout series, and the
// combined page passes the conformance parser.
func TestSharedRegistryExposesEngineFamilies(t *testing.T) {
	prev := obs.Active()
	reg := obs.NewRegistry()
	obs.Enable(reg)
	t.Cleanup(func() { obs.Enable(prev) })

	svc := newTestService(t, Config{Registry: reg})
	get(t, svc.Handler(), "/handout?id=alice", "")
	// The daemon's serve path is memo-free by design; touch an engine-side
	// day memo directly to prove its counts land on the shared page.
	censor.NewVictim(network(t), 7).KnownPeers(10)
	text := svc.metrics.Render()
	if errs := promtest.Lint(text); len(errs) != 0 {
		t.Fatalf("shared exposition not conformant: %v\n%s", errs, text)
	}
	fams, err := promtest.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"i2p_engine_tasks_total",
		"i2p_cache_hits_total",
		"i2p_cache_misses_total",
		"i2pdistribd_requests_total",
		"i2pdistribd_probe_total",
	} {
		if promtest.Find(fams, name) == nil {
			t.Errorf("family %q missing from shared exposition:\n%s", name, text)
		}
	}
	// A fresh victim's first view is a guaranteed miss, so the cache
	// families carry real traffic, not just pre-registered zeros.
	var traffic float64
	for _, name := range []string{"i2p_cache_hits_total", "i2p_cache_misses_total"} {
		for _, s := range promtest.Find(fams, name).Samples {
			traffic += s.Value
		}
	}
	if traffic == 0 {
		t.Error("no cache traffic counted after KnownPeers on the shared registry")
	}
}

// TestLimiterBucketsGaugeFalls: the bucket gauge, set when /metrics is
// scraped, counts a flood's identities while their buckets can still
// refuse, and falls once a new identity arriving at the full shard
// reclaims the buckets that refilled — without the table doubling.
func TestLimiterBucketsGaugeFalls(t *testing.T) {
	clk := time.Unix(1700000000, 0)
	svc := newTestService(t, Config{RatePerSec: 5, Burst: 4, Now: func() time.Time { return clk }})
	h := svc.Handler()
	scrape := func() float64 {
		t.Helper()
		fams, err := promtest.Parse(get(t, h, "/metrics", "").Body.String())
		if err != nil {
			t.Fatal(err)
		}
		return promtest.Find(fams, "i2pdistribd_limiter_buckets").Samples[0].Value
	}

	// 96 identities of shard 5 fill its table to ¾ of 128 slots, so the
	// next new one reclaims before it could double the table.
	const flood = 96
	shard := &svc.limiter.shards[5]
	for i := range uint64(flood) {
		svc.limiter.Allow(inShard((i+1)*0x9E3779B97F4A7C15, 5))
	}
	if got := scrape(); got != flood || len(shard.slots) != 128 {
		t.Fatalf("after the flood the gauge reads %v over %d slots, want %d over 128", got, len(shard.slots), flood)
	}
	clk = clk.Add(time.Second) // past the refill horizon, burst/rate = 0.8 s
	if got := scrape(); got != flood {
		t.Fatalf("a scrape alone moved the gauge to %v, want %d: nothing reclaims before a shard fills", got, flood)
	}
	svc.limiter.Allow(inShard(0xfeed, 5))
	if got := scrape(); got != 1 || len(shard.slots) != 128 {
		t.Fatalf("after the reclaim the gauge reads %v over %d slots, want 1 over 128", got, len(shard.slots))
	}
}

// TestHealthzJSON: /healthz reports liveness, build identity and a
// clock-derived uptime as JSON.
func TestHealthzJSON(t *testing.T) {
	clk := time.Unix(1700000000, 0)
	now := func() time.Time { return clk }
	svc := newTestService(t, Config{Now: now})
	clk = clk.Add(90 * time.Second)

	rw := get(t, svc.Handler(), "/healthz", "")
	if rw.Code != 200 {
		t.Fatalf("healthz status %d", rw.Code)
	}
	if ct := rw.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var h HealthJSON
	if err := json.Unmarshal(rw.Body.Bytes(), &h); err != nil {
		t.Fatalf("healthz is not JSON: %v\n%s", err, rw.Body.String())
	}
	if h.Status != "ok" {
		t.Errorf("status = %q, want ok", h.Status)
	}
	if h.GoVersion == "" || !strings.HasPrefix(h.GoVersion, "go") {
		t.Errorf("go_version = %q", h.GoVersion)
	}
	if h.UptimeSeconds != 90 {
		t.Errorf("uptime_seconds = %v, want 90", h.UptimeSeconds)
	}
}

// TestProbePanicGetsOwnOutcome forces the recovery branch: a panicking
// ProbeFunc must not kill the sweep, counts under outcome="panic"
// (never "fail"), and still drives the streak to retirement.
func TestProbePanicGetsOwnOutcome(t *testing.T) {
	clk := time.Unix(1700000000, 0)
	now := func() time.Time { return clk }
	svc := newTestService(t, Config{
		Probe:         func(r distrib.Resource) error { panic("prober bug") },
		FailLimit:     2,
		ProbeInterval: time.Nanosecond,
		Now:           now,
	})

	svc.ProbeOnce(context.Background())
	clk = clk.Add(time.Hour) // clear every backoff
	svc.ProbeOnce(context.Background())

	text := svc.metrics.Render()
	fams, err := promtest.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	probe := promtest.Find(fams, "i2pdistribd_probe_total")
	byOutcome := map[string]float64{}
	for _, s := range probe.Samples {
		o, _ := s.Get("outcome")
		byOutcome[o] = s.Value
	}
	if byOutcome["panic"] == 0 {
		t.Errorf("panic outcome not counted:\n%s", text)
	}
	if byOutcome["fail"] != 0 {
		t.Errorf("panics leaked into the fail outcome (%v):\n%s", byOutcome["fail"], text)
	}
	if byOutcome["retired"] == 0 {
		t.Errorf("panicking probes never retired the bridge:\n%s", text)
	}
	if svc.RetiredCount() == 0 {
		t.Error("no bridge retired after FailLimit panics")
	}
}
