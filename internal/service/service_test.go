package service

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/i2pstudy/i2pstudy/internal/censor"
	"github.com/i2pstudy/i2pstudy/internal/distrib"
	"github.com/i2pstudy/i2pstudy/internal/obs/promtest"
	"github.com/i2pstudy/i2pstudy/internal/reseed"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

var (
	netOnce sync.Once
	netVal  *sim.Network
	netErr  error
)

// network returns the shared test network (built once per test binary).
func network(t testing.TB) *sim.Network {
	t.Helper()
	netOnce.Do(func() {
		netVal, netErr = sim.New(sim.Config{Seed: 2018, Days: 45, TargetDailyPeers: 600})
	})
	if netErr != nil {
		t.Fatal(netErr)
	}
	return netVal
}

// newTestService builds a service over the shared network on day 10 with
// the paper's combined pool strategy; cfg carries per-test overrides
// (rate limit, probe hooks, clock).
func newTestService(t testing.TB, cfg Config) *Service {
	t.Helper()
	if cfg.Day == 0 {
		cfg.Day = 10
	}
	cfg.Strategy = censor.BridgeCombined
	cfg.Seed = 2018
	svc, err := NewService(network(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// get drives one request through the handler without a socket.
func get(t testing.TB, h http.Handler, target, remote string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, target, nil)
	if remote != "" {
		req.RemoteAddr = remote
	}
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	return rw
}

// TestHandoutGoldenAcrossRestart is the restart half of the determinism
// contract: two independently built daemons over the same (seed, scale,
// day) serve byte-identical bodies on every endpoint — the JSON handout
// for each frontend and the signed seed bundle alike.
func TestHandoutGoldenAcrossRestart(t *testing.T) {
	build := func() *Service {
		n, err := sim.New(sim.Config{Seed: 2018, Days: 45, TargetDailyPeers: 500})
		if err != nil {
			t.Fatal(err)
		}
		svc, err := NewService(n, Config{Day: 10, Strategy: censor.BridgeCombined, Seed: 2018})
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	h1, h2 := build().Handler(), build().Handler()

	ids := []string{"alice", "bob", "carol-7", "load-123456"}
	granted := 0
	for _, dist := range []string{"https", "email", "social", "manual-reseed"} {
		for _, id := range ids {
			target := fmt.Sprintf("/handout?dist=%s&id=%s", dist, id)
			r1, r2 := get(t, h1, target, ""), get(t, h2, target, "")
			if r1.Code != http.StatusOK {
				t.Fatalf("GET %s: status %d", target, r1.Code)
			}
			if !bytes.Equal(r1.Body.Bytes(), r2.Body.Bytes()) {
				t.Fatalf("GET %s: bodies differ across restart:\n%s\nvs\n%s",
					target, r1.Body.String(), r2.Body.String())
			}
			if strings.Contains(r1.Body.String(), `"granted":true`) {
				granted++
			}
		}
	}
	if granted == 0 {
		t.Fatal("no request was granted; the golden comparison is vacuous")
	}
	for _, id := range ids {
		target := "/" + reseed.SeedFileName + "?id=" + id
		r1, r2 := get(t, h1, target, ""), get(t, h2, target, "")
		if r1.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d", target, r1.Code)
		}
		if !bytes.Equal(r1.Body.Bytes(), r2.Body.Bytes()) {
			t.Fatalf("GET %s: seed bundles differ across restart", target)
		}
	}
}

// TestRateLimit429 drives one identity past its token bucket on a fake
// clock: the burst is served, the next request is 429 with Retry-After,
// an unrelated identity is unaffected, and the bucket refills with time.
func TestRateLimit429(t *testing.T) {
	var (
		mu  sync.Mutex
		clk = time.Unix(1700000000, 0)
	)
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clk }
	advance := func(d time.Duration) { mu.Lock(); clk = clk.Add(d); mu.Unlock() }

	svc := newTestService(t, Config{RatePerSec: 1, Burst: 2, Now: now})
	h := svc.Handler()

	for i := 0; i < 2; i++ {
		if r := get(t, h, "/handout?id=alice", ""); r.Code != http.StatusOK {
			t.Fatalf("burst request %d: status %d", i, r.Code)
		}
	}
	r := get(t, h, "/handout?id=alice", "")
	if r.Code != http.StatusTooManyRequests {
		t.Fatalf("over-burst request: status %d, want 429", r.Code)
	}
	if r.Header().Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}
	if r := get(t, h, "/handout?id=bob", ""); r.Code != http.StatusOK {
		t.Fatalf("unrelated identity rate-limited: status %d", r.Code)
	}
	advance(1500 * time.Millisecond)
	if r := get(t, h, "/handout?id=alice", ""); r.Code != http.StatusOK {
		t.Fatalf("bucket did not refill: status %d", r.Code)
	}
}

// TestLimiterConcurrentGrants: on a frozen clock an identity is granted
// exactly its burst, however many goroutines ask for it at once and
// however often its shard's table doubles meanwhile.
func TestLimiterConcurrentGrants(t *testing.T) {
	clk := time.Unix(1700000000, 0)
	const burst, workers, ids, rounds = 4, 4, 5000, 6
	l := NewLimiter(5, burst, func() time.Time { return clk })
	grants := make([][]int, workers)
	var wg sync.WaitGroup
	for w := range grants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := make([]int, ids)
			for r := 0; r < rounds; r++ {
				for i := range g {
					if l.Allow(uint64(i) * 0x9E3779B97F4A7C15) {
						g[i]++
					}
				}
			}
			grants[w] = g
		}()
	}
	wg.Wait()
	for i := 0; i < ids; i++ {
		total := 0
		for w := range grants {
			total += grants[w][i]
		}
		if total != burst {
			t.Fatalf("identity %d granted %d times, want the burst %d", i, total, burst)
		}
	}
}

// bridgeAddr finds a published bridge address on the backend — the
// blacklist only speaks the study's interned address table.
func bridgeAddr(t *testing.T, svc *Service) netip.Addr {
	t.Helper()
	for _, name := range svc.HandoutAPI().Distributors() {
		for _, r := range svc.Backend().Partition(name).Resources() {
			for _, a := range r.Record.Addresses {
				if a.Addr.IsValid() {
					return a.Addr
				}
			}
		}
	}
	t.Fatal("no published bridge address in the pool")
	return netip.Addr{}
}

// TestBlacklist403 blocks a client address and watches the daemon refuse
// it on every identity until unblocked.
func TestBlacklist403(t *testing.T) {
	svc := newTestService(t, Config{})
	h := svc.Handler()
	addr := bridgeAddr(t, svc)
	remote := net.JoinHostPort(addr.String(), "4444")

	if r := get(t, h, "/handout?id=alice", remote); r.Code != http.StatusOK {
		t.Fatalf("pre-block: status %d", r.Code)
	}
	if !svc.Blacklist().Block(addr) {
		t.Fatalf("Block(%s) = false", addr)
	}
	for _, id := range []string{"alice", "bob"} {
		if r := get(t, h, "/handout?id="+id, remote); r.Code != http.StatusForbidden {
			t.Fatalf("blocked address served id=%s: status %d", id, r.Code)
		}
	}
	if r := get(t, h, "/"+reseed.SeedFileName+"?id=alice", remote); r.Code != http.StatusForbidden {
		t.Fatalf("blocked address served seeds: status %d", r.Code)
	}
	if r := get(t, h, "/handout?id=alice", "192.0.2.1:1"); r.Code != http.StatusOK {
		t.Fatalf("unrelated address caught by blacklist: status %d", r.Code)
	}
	if !svc.Blacklist().Unblock(addr) {
		t.Fatalf("Unblock(%s) = false", addr)
	}
	if r := get(t, h, "/handout?id=alice", remote); r.Code != http.StatusOK {
		t.Fatalf("post-unblock: status %d", r.Code)
	}
	if svc.Blacklist().Block(netip.MustParseAddr("203.0.113.99")) {
		t.Fatal("blocked an address the study never interned")
	}
}

// TestSeedsRoundTrip parses the served su3 bundle and checks it is
// exactly the requester's granted arc, signed by the daemon's signer.
func TestSeedsRoundTrip(t *testing.T) {
	svc := newTestService(t, Config{})
	h := svc.Handler()

	const id = "seed-client"
	r := get(t, h, "/"+reseed.SeedFileName+"?id="+id, "")
	if r.Code != http.StatusOK {
		t.Fatalf("GET seeds: status %d", r.Code)
	}
	bundle, err := reseed.ParseBundle(r.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if bundle.Signer != bundleSigner {
		t.Fatalf("bundle signer %q, want %q", bundle.Signer, bundleSigner)
	}

	api := svc.HandoutAPI()
	served, err := api.Serve(distrib.Request{Dist: "manual-reseed", ID: distrib.IdentityKey(id), Day: 10})
	if err != nil || !served.Granted {
		t.Fatalf("Serve: granted=%v err=%v", served.Granted, err)
	}
	d, _ := api.Distributor("manual-reseed")
	g, _ := d.Grant(distrib.IdentityKey(id), 10, 0)
	want := svc.Backend().Partition("manual-reseed").GetMany(served.Key, g.Count)
	if len(bundle.Records) != len(want) {
		t.Fatalf("bundle has %d records, want %d", len(bundle.Records), len(want))
	}
	for i, rec := range bundle.Records {
		if rec.Identity != want[i].Record.Identity {
			t.Fatalf("record %d identity mismatch", i)
		}
	}
}

// TestMetricsRender checks the exposition carries the request counters,
// pool gauges and the latency histogram after live traffic.
func TestMetricsRender(t *testing.T) {
	svc := newTestService(t, Config{})
	h := svc.Handler()

	get(t, h, "/handout?id=alice", "")
	get(t, h, "/handout?id=bob", "")
	get(t, h, "/handout", "") // missing id: 400

	r := get(t, h, "/metrics", "")
	if r.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", r.Code)
	}
	body := r.Body.String()
	for _, want := range []string{
		`i2pdistribd_requests_total{dist="https",code="200"} 2`,
		`i2pdistribd_requests_total{dist="https",code="400"} 1`,
		`i2pdistribd_pool_size{dist="https"}`,
		`i2pdistribd_probe_total{outcome="ok"}`,
		`i2pdistribd_handout_latency_seconds_count 3`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestUnknownDistributorBoundsRequestSeries: dist is unauthenticated
// client input, so however many distinct garbage values a refused
// request carries, they share one dist="unknown" series per status code;
// a refused request naming a real distributor keeps its label.
func TestUnknownDistributorBoundsRequestSeries(t *testing.T) {
	const n = 1000
	// series returns the dist/code label pairs of the request counter.
	series := func(h http.Handler) map[[2]string]bool {
		fams, err := promtest.Parse(get(t, h, "/metrics", "").Body.String())
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[[2]string]bool)
		f := promtest.Find(fams, "i2pdistribd_requests_total")
		if f == nil { // no request counted yet
			return out
		}
		for _, sm := range f.Samples {
			dist, _ := sm.Get("dist")
			code, _ := sm.Get("code")
			out[[2]string{dist, code}] = true
		}
		return out
	}
	for _, tc := range []struct {
		name, target string // target takes the request number twice
		code         int
		wantDist     string
	}{
		{"serve rejects", "/handout?dist=x%d&id=u%d", http.StatusNotFound, "unknown"},
		{"missing id", "/handout?dist=x%d&attempt=%d", http.StatusBadRequest, "unknown"},
		{"bad attempt", "/handout?dist=x%d&id=u&attempt=x%d", http.StatusBadRequest, "unknown"},
		{"real distributor", "/handout?dist=email&attempt=%d%d", http.StatusBadRequest, "email"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newTestService(t, Config{}).Handler()
			before := series(h)
			for i := 0; i < n; i++ {
				if r := get(t, h, fmt.Sprintf(tc.target, i, i), ""); r.Code != tc.code {
					t.Fatalf("request %d: status %d, want %d", i, r.Code, tc.code)
				}
			}
			after, want := series(h), [2]string{tc.wantDist, fmt.Sprint(tc.code)}
			if len(after) != len(before)+1 || !after[want] {
				t.Fatalf("%d requests took the request series from %d to %d, want exactly one new series %v:\n%v",
					n, len(before), len(after), want, after)
			}
		})
	}
}

// TestMethodAndQueryLimits covers the two checks that run before a
// query is trusted: a non-GET is answered 405 with the Allow header
// RFC 9110 §15.5.6 requires, and a query over maxQueryLen is answered
// 414 unparsed — on /handout under dist="unknown", since the dist it
// names was never read.
func TestMethodAndQueryLimits(t *testing.T) {
	seeds := "/" + reseed.SeedFileName
	atLimit := "id=" + strings.Repeat("x", maxQueryLen-len("id="))
	for _, tc := range []struct {
		name, method, target string
		code                 int
		allow, series        string
	}{
		{"handout POST", http.MethodPost, "/handout?dist=email&id=a", http.StatusMethodNotAllowed, "GET", `dist="email",code="405"`},
		{"handout DELETE, unknown dist", http.MethodDelete, "/handout?dist=nope&id=a", http.StatusMethodNotAllowed, "GET", `dist="unknown",code="405"`},
		{"seeds POST", http.MethodPost, seeds + "?id=a", http.StatusMethodNotAllowed, "GET", `dist="manual-reseed",code="405"`},
		{"handout query at the limit", http.MethodGet, "/handout?" + atLimit, http.StatusOK, "", `dist="https",code="200"`},
		{"handout query over the limit", http.MethodGet, "/handout?" + atLimit + "x", http.StatusRequestURITooLong, "", `dist="unknown",code="414"`},
		{"handout POST over the limit", http.MethodPost, "/handout?dist=email&" + atLimit, http.StatusRequestURITooLong, "", `dist="unknown",code="414"`},
		{"seeds query at the limit", http.MethodGet, seeds + "?" + atLimit, http.StatusOK, "", `dist="manual-reseed",code="200"`},
		{"seeds query over the limit", http.MethodGet, seeds + "?" + atLimit + "x", http.StatusRequestURITooLong, "", `dist="manual-reseed",code="414"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newTestService(t, Config{}).Handler()
			rw := httptest.NewRecorder()
			h.ServeHTTP(rw, httptest.NewRequest(tc.method, tc.target, nil))
			if rw.Code != tc.code {
				t.Fatalf("status %d, want %d", rw.Code, tc.code)
			}
			if got := rw.Header().Get("Allow"); got != tc.allow {
				t.Fatalf("Allow header %q, want %q", got, tc.allow)
			}
			want := "i2pdistribd_requests_total{" + tc.series + "} 1\n"
			if body := get(t, h, "/metrics", "").Body.String(); !strings.Contains(body, want) {
				t.Fatalf("/metrics missing %q in:\n%s", want, body)
			}
		})
	}
}

// TestRouteTable: the four routes are exact paths, matched as the
// request names them — a trailing slash, another case, an uncleaned path
// or a subpath is 404, never a redirect — and a route answers a wrong
// method itself.
func TestRouteTable(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	do := func(method, path, query string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, "/", nil)
		req.URL = &url.URL{Path: path, RawQuery: query}
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		return rw
	}
	for _, path := range []string{"/handout", "/" + reseed.SeedFileName, "/metrics", "/healthz"} {
		if rw := do(http.MethodGet, path, "id=route"); rw.Code != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", path, rw.Code)
		}
	}
	for _, path := range []string{"/", "/handout/", "/Handout", "//handout", "/metrics/x"} {
		if rw := do(http.MethodGet, path, "id=route"); rw.Code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, rw.Code)
		}
	}
	rw := do(http.MethodPost, "/handout", "id=route")
	if rw.Code != http.StatusMethodNotAllowed || rw.Header().Get("Allow") != http.MethodGet {
		t.Errorf("POST /handout: status %d, Allow %q; want 405, GET", rw.Code, rw.Header().Get("Allow"))
	}
}
