package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/netip"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/i2pstudy/i2pstudy/internal/censor"
	"github.com/i2pstudy/i2pstudy/internal/distrib"
	"github.com/i2pstudy/i2pstudy/internal/netdb"
	"github.com/i2pstudy/i2pstudy/internal/obs"
	"github.com/i2pstudy/i2pstudy/internal/reseed"
	"github.com/i2pstudy/i2pstudy/internal/service"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

const (
	handoutPeers = 3050 // cmd/i2pdistribd's default scale 0.1
	handoutDay   = 10
	hotSet       = 10000 // identities the mix's hot half draws from
	verifyEvery  = 1000  // handout re-requests, and the traced pass keeps, every 1000th request
	retireEvents = 19    // the mix retires two bridges at each of 19 evenly spaced indices
	remoteAddr   = "192.0.2.1:9999"
)

// tick is how far the mix's virtual clock advances per issued request:
// 100K offered requests per simulated second, so the share of 429s is a
// property of the mix and not of how fast the machine is.
const tick = 10 * time.Microsecond

// handoutWorkload drives the daemon's handler in process: a closed loop
// of clients() callers, each taking the next request index from one
// counter and waiting for its reply. With mix false every request is
// GET /handout?dist=https for a fresh identity; with mix true the
// requests come from a seeded generator and bridges retire under load.
type handoutWorkload struct {
	p        params
	mix      bool
	requests int

	net     *sim.Network
	svc     *service.Service
	handler http.Handler
	issued  atomic.Int64 // next request index; also drives the mix's clock

	// The mix's prober: the client that draws a retirement index marks
	// two more bridges dead and probes, one such client at a time.
	probeMu sync.Mutex
	victims []int
	dead    map[int]bool

	lats   []int64  // per-request latency by index, reused across iterations
	bodies [][]byte // the verified requests' first bodies, by index/verifyEvery
	last   passResult
}

// passResult is what one pass over the request indices observed.
type passResult struct {
	completed  int // requests answered, re-requests included
	bad        int // statuses outside 200, and outside 429 for a hot identity
	refused    int // 429s
	mismatches int // re-requests whose body differed from the first
	retireDur  time.Duration
	retires    int
	firstMark  time.Time // when request index n/10 was issued
	lastMark   time.Time // when request index n-n/10 was issued
	start, end time.Time
}

func newHandout(p params, mix bool) *handoutWorkload {
	n := 1_000_000
	if p.requests > 0 {
		n = p.requests
	}
	return &handoutWorkload{p: p, mix: mix, requests: n, lats: make([]int64, n), bodies: make([][]byte, (n+verifyEvery-1)/verifyEvery)}
}

// setup boots the daemon as cmd/i2pdistribd does: an obs.Enable'd
// registry first, then the network, then the Service on its defaults.
func (h *handoutWorkload) setup() error {
	reg := obs.NewRegistry()
	obs.Enable(reg)
	var err error
	if h.net, err = newNetwork(h.p.seed, h.p.peersOr(handoutPeers)); err != nil {
		return err
	}
	h.svc, err = h.newService(h.net, reg)
	return err
}

func (h *handoutWorkload) newService(net *sim.Network, reg *obs.Registry) (*service.Service, error) {
	cfg := service.Config{
		Day: handoutDay, Strategy: censor.BridgeCombined, MaxResources: 200, Seed: h.p.seed,
		RatePerSec: 5, Burst: 4, ProbeInterval: 30 * time.Second, FailLimit: 3, Registry: reg,
	}
	h.issued.Store(0)
	h.dead = map[int]bool{}
	if h.mix {
		base := time.Now()
		cfg.Now = func() time.Time { return base.Add(time.Duration(h.issued.Load()) * tick) }
		cfg.FailLimit = 1
		cfg.Probe = func(r distrib.Resource) error {
			if h.dead[r.Peer] {
				return fmt.Errorf("peer %d marked dead", r.Peer)
			}
			return nil
		}
	}
	svc, err := service.NewService(net, cfg)
	if err != nil {
		return nil, err
	}
	h.handler = svc.Handler()
	// Retirement order: every second ring position of each partition,
	// partitions taken in turn, so no arc ever loses all its bridges and
	// a seed bundle or handout is never empty.
	h.victims = h.victims[:0]
	for pos := 0; len(h.victims) < 2*retireEvents; pos += 2 {
		found := false
		for _, name := range svc.HandoutAPI().Distributors() {
			if res := svc.Backend().Partition(name).Resources(); pos < len(res) {
				h.victims = append(h.victims, res[pos].Peer)
				found = true
			}
		}
		if !found {
			break
		}
	}
	return svc, nil
}

// sink is the clients' http.ResponseWriter: it keeps the status, and
// the body only when asked to.
type sink struct {
	code    int
	header  http.Header
	capture bool
	body    bytes.Buffer
}

func (w *sink) Header() http.Header  { return w.header }
func (w *sink) WriteHeader(code int) { w.code = code }
func (w *sink) Write(p []byte) (int, error) {
	if w.capture {
		w.body.Write(p)
	}
	return len(p), nil
}

// splitmix64 turns a request index into that request's random draw, so
// whichever client takes index i issues the same request.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// request is request index i of the workload: its URL and whether the
// identity is one of the hot set (which may be refused).
func (h *handoutWorkload) request(i int) (path, query string, hot bool) {
	if !h.mix {
		return "/handout", "dist=https&id=load-" + strconv.Itoa(i), false
	}
	r := splitmix64(h.p.seed ^ uint64(i)<<1)
	id := "fresh-" + strconv.Itoa(i)
	if hot = r&1 == 0; hot {
		id = "hot-" + strconv.Itoa(int(r>>8%hotSet))
	}
	switch e := r >> 32 % 100; {
	case e < 60:
		return "/handout", "dist=https&id=" + id, hot
	case e < 75:
		return "/handout", "dist=email&id=" + id, hot
	case e < 85:
		return "/handout", "dist=social&id=" + id + "&attempt=" + strconv.Itoa(int(r>>40%3)), hot
	default:
		return "/" + reseed.SeedFileName, "id=" + id, hot
	}
}

// retire marks the next two victims dead and runs one probe sweep, as
// the daemon's prober would after two bridges went offline.
func (h *handoutWorkload) retire(res *passResult) {
	h.probeMu.Lock()
	defer h.probeMu.Unlock()
	for k := 0; k < 2 && len(h.dead) < len(h.victims); k++ {
		h.dead[h.victims[len(h.dead)]] = true
	}
	t0 := time.Now()
	h.svc.ProbeOnce(context.Background())
	res.retireDur += time.Since(t0)
	res.retires++
}

// pass issues request indices [0, n) from nClients closed-loop clients.
// Each request is a child span of parent called span, aggregated by
// name; every 1000th is kept for the trace file.
func (h *handoutWorkload) pass(rec *recorder, parent int, span string, nClients, n int) passResult {
	h.issued.Store(0)
	retireEvery := n / (retireEvents + 1)
	results := make([]passResult, nClients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := &results[c]
			w := &sink{header: make(http.Header)}
			u := &url.URL{}
			req := &http.Request{Method: http.MethodGet, URL: u, RemoteAddr: remoteAddr}
			do := func(i int, capture bool) time.Time {
				w.code, w.capture = http.StatusOK, capture
				w.body.Reset()
				t0 := time.Now()
				h.handler.ServeHTTP(w, req)
				t1 := time.Now()
				h.lats[i] = t1.Sub(t0).Nanoseconds()
				rec.add(parent, c+1, span, t0, t1, i%verifyEvery == 0)
				res.completed++
				return t0
			}
			for {
				i := int(h.issued.Add(1)) - 1
				if i >= n {
					return
				}
				if h.mix && i > 0 && i%retireEvery == 0 && i/retireEvery <= retireEvents {
					h.retire(res)
				}
				var hot bool
				u.Path, u.RawQuery, hot = h.request(i)
				verify := !h.mix && i%verifyEvery == 0
				t0 := do(i, verify)
				switch i {
				case n / 10:
					res.firstMark = t0
				case n - n/10:
					res.lastMark = t0
				}
				switch {
				case w.code == http.StatusOK:
				case w.code == http.StatusTooManyRequests && hot:
					res.refused++
				default:
					res.bad++
				}
				if verify {
					first := bytes.Clone(w.body.Bytes())
					h.bodies[i/verifyEvery] = first
					lat := h.lats[i]
					do(i, true)
					h.lats[i] = lat // the re-request hits the limiter table; report the miss
					if w.code != http.StatusOK {
						res.bad++
					}
					if !bytes.Equal(first, w.body.Bytes()) {
						res.mismatches++
					}
				}
			}
		}()
	}
	wg.Wait()
	out := passResult{start: start, end: time.Now()}
	for _, r := range results {
		out.completed += r.completed
		out.bad += r.bad
		out.refused += r.refused
		out.mismatches += r.mismatches
		out.retireDur += r.retireDur
		out.retires += r.retires
		if !r.firstMark.IsZero() {
			out.firstMark = r.firstMark
		}
		if !r.lastMark.IsZero() {
			out.lastMark = r.lastMark
		}
	}
	return out
}

// percentileUS reads the q-quantile of sorted nanosecond latencies in µs.
func percentileUS(sorted []int64, q float64) float64 {
	return float64(sorted[min(int(q*float64(len(sorted))), len(sorted)-1)]) / 1e3
}

func (h *handoutWorkload) run(rec *recorder, parent int) error {
	h.last = h.pass(rec, parent, "service.ServeHTTP", clients(), h.requests)
	return nil
}

func (h *handoutWorkload) own() sample {
	r := h.last
	sorted := slices.Clone(h.lats[:h.requests])
	slices.Sort(sorted)
	s := sample{
		"rps":              float64(r.completed) / r.end.Sub(r.start).Seconds(),
		"p50_us":           percentileUS(sorted, 0.50),
		"p99_us":           percentileUS(sorted, 0.99),
		"service.p9999_us": percentileUS(sorted, 0.9999),
		// Throughput over the last tenth of the indices against the first.
		"service.rps_decay": r.firstMark.Sub(r.start).Seconds() / r.end.Sub(r.lastMark).Seconds(),
	}
	if h.mix {
		s["service.refused_ratio"] = float64(r.refused) / float64(r.completed)
		s["service.retired"] = float64(h.svc.RetiredCount())
		if r.retires > 0 {
			s["service.retire_s"] = r.retireDur.Seconds() / float64(r.retires)
		}
	}
	return s
}

func (h *handoutWorkload) check(t *tally) string {
	r := h.last
	t.ops(r.completed, r.bad, "requests answered with an unexpected status")
	if h.mix {
		// Which requests race a retirement differs from run to run, so
		// the mix has no stable bytes to digest.
		return ""
	}
	t.ops(len(h.bodies), r.mismatches, "re-requests served different bytes")
	return digestBodies(h.bodies)
}

// digestBodies is the SHA-256 over the verified identities' bodies in
// index order: two Services on one seed must serve the same bytes.
func digestBodies(bodies [][]byte) string {
	h := sha256.New()
	for _, b := range bodies {
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// layers times the handler's stages on fresh Services. Its parse and
// encode are private, so the pass times the whole handler from one
// client, then admission and Serve on their own over the same number of
// fresh keys, and reports the remainder as the derived encode_ns.
func (h *handoutWorkload) layers(rec *recorder, ref sample) (sample, error) {
	root := rec.root
	reg := obs.NewRegistry()
	obs.Enable(reg)
	peers := h.p.peersOr(handoutPeers)
	net, err := newNetwork(h.p.seed, peers)
	if err != nil {
		return nil, err
	}
	err = rec.do(root, "service.NewService", func(int) error {
		h.svc, err = h.newService(net, reg)
		return err
	})
	if err != nil {
		return nil, err
	}
	// A second network, so the backend build is as cold as a boot's.
	cold, err := newNetwork(h.p.seed, peers)
	if err != nil {
		return nil, err
	}
	err = rec.do(root, "distrib.NewBackend", func(int) error {
		_, err := distrib.NewBackend(cold, distrib.BackendConfig{
			Strategy: censor.BridgeCombined, Day: handoutDay, MaxResources: 200, Seed: h.p.seed,
		}, distrib.DefaultDistributors())
		return err
	})
	if err != nil {
		return nil, err
	}

	// The whole handler from one client, with the workload's own requests.
	n := h.requests / 5
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var one passResult
	const oneClient = "service.ServeHTTP/one-client"
	_ = rec.do(root, "one-client", func(id int) error { one = h.pass(rec, id, oneClient, 1, n); return nil })
	runtime.ReadMemStats(&m1)
	handlerNS := rec.seconds(oneClient) * 1e9 / float64(rec.count(oneClient))
	rps1 := float64(one.completed) / one.end.Sub(one.start).Seconds()
	out := sample{
		"service.newservice_s":     rec.seconds("service.NewService"),
		"distrib.backend_build_s":  rec.seconds("distrib.NewBackend"),
		"service.rps_1client":      rps1,
		"service.parallel_speedup": ref["rps"] / rps1,
	}

	if h.mix {
		// The pre-built-bundle path alone, and what a retirement rebuilds.
		w := &sink{header: make(http.Header)}
		u := &url.URL{Path: "/" + reseed.SeedFileName}
		req := &http.Request{Method: http.MethodGet, URL: u, RemoteAddr: remoteAddr}
		_ = rec.do(root, "service.ServeHTTP/seeds", func(int) error {
			for i := 0; i < n; i++ {
				u.RawQuery = "id=seed-" + strconv.Itoa(i)
				h.handler.ServeHTTP(w, req)
			}
			return nil
		})
		out["service.seeds_ns"] = rec.seconds("service.ServeHTTP/seeds") * 1e9 / float64(n)

		part := h.svc.Backend().Partition("manual-reseed")
		res := part.Resources()
		groups := make([][]*netdb.RouterInfo, len(res))
		for slot := range res {
			for _, r := range part.GetMany(res[slot].Key, 5) {
				groups[slot] = append(groups[slot], r.Record)
			}
		}
		err := rec.do(root, "reseed.BuildBundleSet", func(int) error {
			_, err := reseed.BuildBundleSet(groups, "i2pdistribd", part.When())
			return err
		})
		if err != nil {
			return nil, err
		}
		out["reseed.bundleset_build_s"] = rec.seconds("reseed.BuildBundleSet")
		return out, nil
	}

	out["service.handler_ns"] = handlerNS
	out["service.handler_allocs"] = float64(m1.Mallocs-m0.Mallocs) / float64(one.completed)
	out["service.handler_bytes"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(one.completed)

	// Admission and Serve alone, over as many fresh keys.
	ids := make([]string, n)
	for i := range ids {
		ids[i] = "stage-" + strconv.Itoa(i)
	}
	keys := make([]uint64, n)
	limiter := service.NewLimiter(5, 4, time.Now)
	blacklist := h.svc.Blacklist()
	addr := netip.MustParseAddrPort(remoteAddr).Addr()
	err = rec.do(root, "service.admit", func(int) error {
		for i, id := range ids {
			keys[i] = distrib.IdentityKey(id)
			if blacklist.Blocked(addr) || !limiter.Allow(keys[i]) {
				return fmt.Errorf("fresh identity %s refused", id)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = rec.do(root, "service.Serve", func(int) error {
		for _, key := range keys {
			if _, err := h.svc.Serve(distrib.Request{Dist: "https", ID: key}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["service.admit_ns"] = rec.seconds("service.admit") * 1e9 / float64(n)
	out["distrib.serve_ns"] = rec.seconds("service.Serve") * 1e9 / float64(n)
	out["service.encode_ns"] = handlerNS - out["service.admit_ns"] - out["distrib.serve_ns"]
	return out, nil
}
