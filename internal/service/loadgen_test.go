package service

import (
	"context"
	"net/http"
	"sync/atomic"
	"testing"
	"time"
)

// TestServiceLoadGen runs a small load generation end to end: every
// request succeeds and every determinism spot-check matches.
func TestServiceLoadGen(t *testing.T) {
	svc := newTestService(t, Config{})
	res, err := svc.LoadGen(context.Background(), 3000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.Mismatches != 0 {
		t.Fatalf("loadgen: %d errors, %d mismatches", res.Errors, res.Mismatches)
	}
	if res.Verified != 3 {
		t.Fatalf("verified %d identities, want 3", res.Verified)
	}
	if res.Requests != 3003 { // 3000 identities + 3 verification re-requests
		t.Fatalf("loadgen made %d requests, want 3003", res.Requests)
	}
	if res.RequestsPerSec <= 0 || res.P99Latency <= 0 {
		t.Fatalf("degenerate measurements: %+v", res)
	}
}

// TestServiceLoadGenMillionIdentities is the ISSUE's acceptance run: the
// daemon survives one million distinct identities with per-identity
// deterministic handouts. Skipped under -short.
func TestServiceLoadGenMillionIdentities(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-identity load run skipped under -short")
	}
	svc := newTestService(t, Config{})
	res, err := svc.LoadGen(context.Background(), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.Mismatches != 0 {
		t.Fatalf("loadgen: %d errors, %d mismatches", res.Errors, res.Mismatches)
	}
	if res.Requests < 1_000_000 {
		t.Fatalf("loadgen made %d requests, want >= 1M", res.Requests)
	}
	t.Logf("1M identities: %.0f req/s, p99 %v", res.RequestsPerSec, res.P99Latency)
}

// TestLoadGenCancellation covers the ctx exit: a cancelled run stops
// early and reports the cancellation.
func TestLoadGenCancellation(t *testing.T) {
	svc := newTestService(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := svc.LoadGen(ctx, 1_000_000)
	if err == nil {
		t.Fatal("cancelled loadgen returned nil error")
	}
	if res.Requests >= 1_000_000 {
		t.Fatal("cancelled loadgen ran to completion")
	}
}

// BenchmarkServiceHandoutSerial measures the single-requester handout
// path: parse, admission, grant, arc walk, body assembly.
func BenchmarkServiceHandoutSerial(b *testing.B) {
	svc := newTestService(b, Config{})
	h := svc.Handler()
	client := newLoadClient("https", "bench-")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := client.get(h, int64(i), false); code != http.StatusOK {
			b.Fatalf("handout status %d", code)
		}
	}
}

// BenchmarkServiceHandoutParallel measures the same path under one
// requester per core, each with a distinct identity stream.
func BenchmarkServiceHandoutParallel(b *testing.B) {
	svc := newTestService(b, Config{})
	h := svc.Handler()
	var ctr atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := newLoadClient("https", "bench-")
		for pb.Next() {
			if code := client.get(h, ctr.Add(1), false); code != http.StatusOK {
				b.Errorf("handout status %d", code)
				return
			}
		}
	})
}

// BenchmarkLimiterFlood measures admission under an identity flood: b.N
// fresh identities through one Limiter on the real clock, every one a
// table miss. Buckets refilled to their burst are reclaimed before a
// shard doubles, so the tables are bounded by the identities that
// arrive within a fresh bucket's refill time (1/rate, 0.2 s here), not
// by b.N.
func BenchmarkLimiterFlood(b *testing.B) {
	l := NewLimiter(5, 4, time.Now)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !l.Allow(uint64(i+1) * 0x9E3779B97F4A7C15) {
			b.Fatal("a fresh identity was refused")
		}
	}
}
