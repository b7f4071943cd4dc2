//go:build !race

// Allocation counts under the race detector are not the build's (its
// sync.Pool drops items at random), so this file stays out of -race runs.

package service

import (
	"net/http"
	"net/url"
	"strconv"
	"testing"
)

// TestHandoutAllocationGate pins the granted fresh-identity /handout
// path — mux, parse, blacklist, a limiter-table miss, Serve, body
// assembly, counters — at two allocations inside the handler (the
// granted arc distrib.Partition.GetMany returns is one). The encoder
// path it replaced made 28; a regression fails here instead of waiting
// for the ledger's service.handler_allocs.
func TestHandoutAllocationGate(t *testing.T) {
	svc := newTestService(t, Config{RatePerSec: 5, Burst: 4})
	h := svc.Handler()

	const runs = 2000
	queries := make([]string, runs+1) // AllocsPerRun makes one warm-up call
	for i := range queries {
		queries[i] = "dist=https&id=gate-" + strconv.Itoa(i)
	}
	rw := &discardWriter{header: make(http.Header)}
	u := &url.URL{Path: "/handout"}
	req := &http.Request{Method: http.MethodGet, URL: u, RemoteAddr: "192.0.2.1:9999"}
	next, bad := 0, 0
	allocs := testing.AllocsPerRun(runs, func() {
		u.RawQuery = queries[next]
		next++
		rw.code = 0
		h.ServeHTTP(rw, req)
		if rw.code != http.StatusOK {
			bad++
		}
	})
	if bad != 0 {
		t.Fatalf("%d of %d fresh identities were not served", bad, next)
	}
	if allocs > 2 {
		t.Fatalf("a granted /handout makes %.0f allocations inside the handler, want <= 2", allocs)
	}
	t.Logf("%.0f allocations per granted /handout", allocs)
}
