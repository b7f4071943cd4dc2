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
// path — route, parse, blacklist, a limiter-table miss, Serve, body
// assembly, counters — at zero allocations inside the handler, with the
// blacklist empty, with an unrelated address on it, and with every other
// https bridge retired (the body skips them; the handout is not copied).
// The encoder path it replaced made 28; a regression fails here instead
// of waiting for the ledger's service.handler_allocs.
func TestHandoutAllocationGate(t *testing.T) {
	for _, tc := range []struct {
		name          string
		block, retire bool
	}{
		{"empty blacklist", false, false},
		{"unrelated address blocked", true, false},
		{"bridges retired", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := newTestService(t, Config{RatePerSec: 5, Burst: 4})
			if tc.block {
				if addr := bridgeAddr(t, svc); !svc.Blacklist().Block(addr) {
					t.Fatalf("Block(%s) = false", addr)
				}
			}
			if tc.retire {
				var peers []int
				for i, r := range svc.Backend().Partition("https").Resources() {
					if i%2 == 0 {
						peers = append(peers, r.Peer)
					}
				}
				if err := svc.retire(peers); err != nil {
					t.Fatal(err)
				}
			}
			h := svc.Handler()

			// The gate's identities would double each fresh shard table
			// about twice, a few allocations that AllocsPerRun's
			// per-run rounding would hide. Pre-size every shard well
			// past them instead, and check afterwards that none grew.
			const presized = 256
			shards := &svc.limiter.shards
			for i := range shards {
				for len(shards[i].slots) < presized {
					shards[i].grow()
				}
			}

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
			for i := range shards {
				if n := len(shards[i].slots); n != presized {
					t.Fatalf("limiter shard %d grew to %d slots during the gate", i, n)
				}
			}
			if allocs != 0 {
				t.Fatalf("a granted /handout makes %.0f allocations inside the handler, want 0", allocs)
			}
		})
	}
}
