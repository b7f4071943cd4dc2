package service

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"time"

	"github.com/i2pstudy/i2pstudy/internal/pool"
)

// This file is the service's load generator: millions of distinct
// requesting identities driven through the real handler stack
// in-process (no sockets), measuring throughput and tail latency and
// spot-checking the determinism contract — the same identity must
// receive byte-identical JSON every time. It backs
// BenchmarkServiceHandoutSerial/Parallel and i2pdistribd -loadgen.

// verifyEvery is the determinism spot-check rate: LoadGen re-requests
// every verifyEvery-th identity and byte-compares the two bodies (the
// duplicate requests count toward throughput).
const verifyEvery = 1000

// LoadGenResult reports a run.
type LoadGenResult struct {
	Requests       int           `json:"requests"`
	Errors         int           `json:"errors"`
	Verified       int           `json:"verified"`
	Mismatches     int           `json:"mismatches"`
	Elapsed        time.Duration `json:"elapsed_ns"`
	RequestsPerSec float64       `json:"requests_per_sec"`
	P99Latency     time.Duration `json:"p99_latency_ns"`
}

// discardWriter is the leanest possible http.ResponseWriter: it captures
// the status code and, only when capture is set, the body — the load
// generator verifies a sampled subset and discards the rest.
type discardWriter struct {
	code    int
	capture bool
	body    bytes.Buffer
	header  http.Header
}

func (w *discardWriter) Header() http.Header {
	if w.header == nil {
		w.header = make(http.Header)
	}
	return w.header
}

func (w *discardWriter) WriteHeader(code int) { w.code = code }

func (w *discardWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	if w.capture {
		w.body.Write(p)
	}
	return len(p), nil
}

// loadClient is one load-generating requester. Its writer, URL, request
// and query buffer are reused across requests, so a run measures the
// handler and not its own generator: the only allocation per request on
// this side is the query string.
type loadClient struct {
	rw     discardWriter
	u      url.URL
	req    http.Request
	query  []byte
	prefix int
}

// newLoadClient returns a requester of dist whose identities are
// idPrefix followed by a number.
func newLoadClient(dist, idPrefix string) *loadClient {
	c := &loadClient{
		rw:    discardWriter{header: make(http.Header)},
		u:     url.URL{Path: "/handout"},
		query: []byte("dist=" + dist + "&id=" + idPrefix),
	}
	c.prefix = len(c.query)
	c.req = http.Request{Method: http.MethodGet, URL: &c.u, RemoteAddr: "192.0.2.1:9999"}
	return c
}

// get requests a handout for identity n and returns the status code;
// with capture set the body is left in c.rw.body until the next get.
func (c *loadClient) get(h http.Handler, n int64, capture bool) int {
	c.query = strconv.AppendInt(c.query[:c.prefix], n, 10)
	c.u.RawQuery = string(c.query)
	c.rw.code, c.rw.capture = 0, capture
	c.rw.body.Reset()
	h.ServeHTTP(&c.rw, &c.req)
	return c.rw.code
}

// LoadGen drives identities distinct identities through the handler,
// one pool worker per CPU, and reports throughput, p99 latency, and
// determinism spot-checks. Worker w requests identities w, w+W, w+2W and
// so on, and keeps its counts and latencies in its own slot; the slots
// merge in worker order.
func (s *Service) LoadGen(ctx context.Context, identities int) (LoadGenResult, error) {
	if identities <= 0 {
		return LoadGenResult{}, fmt.Errorf("service: loadgen needs identities")
	}
	workers := pool.Width(0)
	handler := s.Handler()
	type share struct {
		res  LoadGenResult
		lats []int64
	}
	shares := make([]share, workers)
	start := time.Now()
	// Requests are the daemon's traffic, not engine tasks: a worker
	// reports none to the pool's task counter.
	err := pool.Run(ctx, workers, func(ctx context.Context, w int) (int, error) {
		sh := &shares[w]
		sh.lats = make([]int64, 0, identities/workers+1)
		client := newLoadClient("https", "load-")
		do := func(i int, capture bool) []byte {
			t0 := time.Now()
			code := client.get(handler, int64(i), capture)
			sh.lats = append(sh.lats, time.Since(t0).Nanoseconds())
			sh.res.Requests++
			if code != http.StatusOK {
				sh.res.Errors++
			}
			return client.rw.body.Bytes()
		}
		var first []byte
		for n, i := 0, w; i < identities; n, i = n+1, i+workers {
			if n%1024 == 0 && ctx.Err() != nil {
				return 0, ctx.Err()
			}
			verify := i%verifyEvery == 0
			first = append(first[:0], do(i, verify)...)
			if verify {
				second := do(i, true)
				sh.res.Verified++
				if !bytes.Equal(first, second) {
					sh.res.Mismatches++
				}
			}
		}
		return 0, nil
	})
	var res LoadGenResult
	var lats []int64
	for _, sh := range shares {
		res.Requests += sh.res.Requests
		res.Errors += sh.res.Errors
		res.Verified += sh.res.Verified
		res.Mismatches += sh.res.Mismatches
		lats = append(lats, sh.lats...)
	}
	res.Elapsed = time.Since(start)
	if res.Elapsed > 0 {
		res.RequestsPerSec = float64(res.Requests) / res.Elapsed.Seconds()
	}
	if len(lats) > 0 {
		slices.Sort(lats)
		res.P99Latency = time.Duration(lats[len(lats)*99/100])
	}
	return res, err
}
