package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/i2pstudy/i2pstudy/internal/distrib"
	"github.com/i2pstudy/i2pstudy/internal/netdb"
	"github.com/i2pstudy/i2pstudy/internal/reseed"
)

// TestProberRetiresDeadBridge is the serving half of the stable-
// assignment invariant (the ring half is FuzzHashringAssignment's
// retirement section): a bridge failing FailLimit consecutive probes is
// retired, its handouts shrink to an order-preserving subsequence,
// identities it never served are byte-unchanged, the manual-reseed
// bundle cache is rebuilt without it, and no partition is rebuilt.
func TestProberRetiresDeadBridge(t *testing.T) {
	var (
		mu  sync.Mutex
		clk = time.Unix(1700000000, 0)
	)
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clk }
	advance := func(d time.Duration) { mu.Lock(); clk = clk.Add(d); mu.Unlock() }

	dead := make(map[int]bool) // mutated before any ProbeOnce call only
	probe := func(r distrib.Resource) error {
		if dead[r.Peer] {
			return errors.New("probe: connection refused")
		}
		return nil
	}
	svc := newTestService(t, Config{
		Probe:         probe,
		Now:           now,
		FailLimit:     2,
		ProbeInterval: time.Second,
	})
	h := svc.Handler()
	ctx := context.Background()

	httpsPart := svc.Backend().Partition("https")
	mrPart := svc.Backend().Partition("manual-reseed")
	target := httpsPart.Resources()[0].Peer
	flapper := httpsPart.Resources()[1].Peer
	mrTarget := mrPart.Resources()[0].Peer
	mrIdentity := mrPart.Resources()[0].Record.Identity
	poolSizes := make(map[string]int)
	for _, name := range svc.HandoutAPI().Distributors() {
		poolSizes[name] = svc.Backend().Partition(name).Len()
	}

	// An identity served the https target, one that is not, and one whose
	// seed bundle carries the manual-reseed target.
	servesPeer := func(dist string, id string, peer int) (distrib.Handout, bool) {
		h, err := svc.Serve(distrib.Request{Dist: dist, ID: distrib.IdentityKey(id)})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range h.Resources {
			if r.Peer == peer {
				return h, true
			}
		}
		return h, false
	}
	var hitID, missID, seedID string
	var before distrib.Handout
	for i := 0; hitID == "" || missID == "" || seedID == ""; i++ {
		if i > 100000 {
			t.Fatal("could not find probe identities")
		}
		id := fmt.Sprintf("probe-%d", i)
		if h, hit := servesPeer("https", id, target); hit && hitID == "" {
			hitID, before = id, h
		} else if !hit && missID == "" {
			missID = id
		}
		if seedID == "" {
			if _, hit := servesPeer("manual-reseed", id, mrTarget); hit {
				seedID = id
			}
		}
	}
	missBefore := get(t, h, "/handout?id="+missID, "").Body.Bytes()
	seedBefore := get(t, h, "/"+reseed.SeedFileName+"?id="+seedID, "").Body.Bytes()
	if b, err := reseed.ParseBundle(seedBefore); err != nil {
		t.Fatal(err)
	} else if !containsIdentity(b, mrIdentity) {
		t.Fatal("pre-retirement seed bundle missing the target record")
	}

	// Kill both targets plus a flapper. One failure is a streak, not a
	// retirement; a probe inside the backoff window is skipped; the
	// second counted failure retires.
	dead[target], dead[mrTarget], dead[flapper] = true, true, true
	svc.ProbeOnce(ctx)
	if svc.epoch.Load().retired[target] {
		t.Fatal("retired after a single probe failure")
	}
	svc.ProbeOnce(ctx) // still inside backoff: must not advance the streak
	if svc.epoch.Load().retired[target] {
		t.Fatal("backoff window did not suppress the re-probe")
	}
	delete(dead, flapper) // recovers before its second probe
	advance(2 * time.Second)
	svc.ProbeOnce(ctx)
	if !svc.epoch.Load().retired[target] || !svc.epoch.Load().retired[mrTarget] {
		t.Fatalf("targets not retired after FailLimit failures (retired=%d)", svc.RetiredCount())
	}
	if svc.RetiredCount() != 2 {
		t.Fatalf("RetiredCount = %d, want 2", svc.RetiredCount())
	}

	// The dead bridge's handout shrinks to an order-preserving
	// subsequence; everything else about it is unchanged.
	after, err := svc.Serve(distrib.Request{Dist: "https", ID: distrib.IdentityKey(hitID)})
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Resources) != len(before.Resources)-1 {
		t.Fatalf("filtered handout has %d resources, want %d", len(after.Resources), len(before.Resources)-1)
	}
	j := 0
	for _, r := range after.Resources {
		if r.Peer == target {
			t.Fatal("retired bridge still served")
		}
		for j < len(before.Resources) && before.Resources[j].Peer != r.Peer {
			j++
		}
		if j == len(before.Resources) {
			t.Fatal("filtered handout is not a subsequence of the original")
		}
		j++
	}

	// Identities the dead bridge never served are byte-unchanged.
	if missAfter := get(t, h, "/handout?id="+missID, "").Body.Bytes(); !bytes.Equal(missBefore, missAfter) {
		t.Fatal("handout without the dead bridge changed under retirement")
	}

	// The seed bundle was rebuilt without the dead record, survivors in
	// order; and no partition was rebuilt — survivors keep their arcs.
	seedAfter := get(t, h, "/"+reseed.SeedFileName+"?id="+seedID, "").Body.Bytes()
	b, err := reseed.ParseBundle(seedAfter)
	if err != nil {
		t.Fatal(err)
	}
	if containsIdentity(b, mrIdentity) {
		t.Fatal("rebuilt seed bundle still carries the retired record")
	}
	for name, n := range poolSizes {
		if got := svc.Backend().Partition(name).Len(); got != n {
			t.Fatalf("partition %s rebuilt under retirement: %d -> %d resources", name, n, got)
		}
	}

	// Metrics saw the retirements and the gauge dropped.
	metrics := svc.metrics.Render()
	for _, want := range []string{
		`i2pdistribd_probe_total{outcome="retired"} 2`,
		fmt.Sprintf(`i2pdistribd_pool_size{dist="https"} %d`, poolSizes["https"]-1),
		fmt.Sprintf(`i2pdistribd_pool_size{dist="manual-reseed"} %d`, poolSizes["manual-reseed"]-1),
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, metrics)
		}
	}

	// The flapper recovered before FailLimit: not retired, streak reset.
	if svc.epoch.Load().retired[flapper] {
		t.Fatal("flapping bridge retired despite recovering")
	}
	if _, ok := svc.streaks[flapper]; ok {
		t.Fatalf("flapper streak not cleared after recovery: %v", svc.streaks)
	}
}

// TestProberBackoffClampsOnLongStreaks is the shift-overflow
// regression: with a FailLimit large enough that a dying bridge keeps
// failing past 63 consecutive probes, the backoff exponent used to run
// off the end of time.Duration (ProbeInterval << 63 wraps negative),
// which put nextDue in the past and turned the dying bridge into a
// hot probe loop. The backoff must stay positive and capped at 16x for
// arbitrarily long streaks.
func TestProberBackoffClampsOnLongStreaks(t *testing.T) {
	var (
		mu  sync.Mutex
		clk = time.Unix(1700000000, 0)
	)
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clk }
	advance := func(d time.Duration) { mu.Lock(); clk = clk.Add(d); mu.Unlock() }

	probe := func(r distrib.Resource) error { return errors.New("probe: connection refused") }
	svc := newTestService(t, Config{
		Probe:         probe,
		Now:           now,
		FailLimit:     200,
		ProbeInterval: time.Second,
	})
	ctx := context.Background()
	peer := svc.Backend().Partition("https").Resources()[0].Peer
	maxBackoff := 16 * time.Second

	for i := 0; i < 80; i++ {
		svc.ProbeOnce(ctx)
		due, ok := svc.nextDue[peer]
		if !ok {
			t.Fatalf("probe %d: failure recorded no backoff", i)
		}
		backoff := due.Sub(now())
		if backoff <= 0 {
			t.Fatalf("probe %d (streak %d): backoff %v is not positive — shift overflow",
				i, svc.streaks[peer], backoff)
		}
		if backoff > maxBackoff {
			t.Fatalf("probe %d (streak %d): backoff %v exceeds the 16x cap %v",
				i, svc.streaks[peer], backoff, maxBackoff)
		}
		advance(backoff) // land exactly on due: the next sweep re-probes
	}
	if got := svc.streaks[peer]; got != 80 {
		t.Fatalf("streak reached %d, want 80 — the loop stopped probing past the shift width", got)
	}
	if svc.epoch.Load().retired[peer] {
		t.Fatal("bridge retired below FailLimit")
	}
}

// TestCancelledSweepCountsNoRetirement: a sweep cancelled after a bridge
// reached FailLimit returns without retiring it, so it must not count
// it either — outcome="retired" equals RetiredCount() after every sweep,
// and the bridge is counted once, by the sweep that does retire it.
func TestCancelledSweepCountsNoRetirement(t *testing.T) {
	clk := time.Unix(1700000000, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var victim int
	svc := newTestService(t, Config{
		Probe: func(r distrib.Resource) error {
			if r.Peer == victim {
				cancel() // the sweep stops at the next bridge
				return errors.New("probe: connection refused")
			}
			return nil
		},
		Now:           func() time.Time { return clk },
		FailLimit:     1,
		ProbeInterval: time.Second,
	})
	victim = svc.Backend().Partition(svc.HandoutAPI().Distributors()[0]).Resources()[0].Peer

	svc.ProbeOnce(ctx)
	if n, counted := svc.RetiredCount(), probeCount(svc, "retired"); n != 0 || counted != 0 {
		t.Fatalf("cancelled sweep: %d retired, counter at %d, want 0 and 0", n, counted)
	}
	clk = clk.Add(2 * time.Second)
	svc.ProbeOnce(context.Background())
	if n, counted := svc.RetiredCount(), probeCount(svc, "retired"); n != 1 || counted != 1 || !svc.epoch.Load().retired[victim] {
		t.Fatalf("next sweep: %d retired, counter at %d, want 1 and 1", n, counted)
	}
}

func containsIdentity(b *reseed.Bundle, id netdb.Hash) bool {
	for _, rec := range b.Records {
		if rec.Identity == id {
			return true
		}
	}
	return false
}

// TestRunProberStopsOnCancel covers the loop's graceful-shutdown path.
func TestRunProberStopsOnCancel(t *testing.T) {
	svc := newTestService(t, Config{ProbeInterval: time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- svc.RunProber(ctx) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("RunProber returned %v on cancel, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunProber did not stop on ctx cancel")
	}
}

// TestDebugProberAgainstConcurrentProbeOnce reads /debug/prober from
// four goroutines while the probe loop sweeps and retires (run under
// -race in CI): streaks and nextDue stay the loop's own, and every
// snapshot a reader decodes is one whole sweep's — peers and the retired
// set ascending, every retired bridge carrying the streak it retired
// with, sweep times never going backwards.
func TestDebugProberAgainstConcurrentProbeOnce(t *testing.T) {
	var (
		mu  sync.Mutex
		clk = time.Unix(1700000000, 0)
	)
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clk }
	advance := func(d time.Duration) { mu.Lock(); clk = clk.Add(d); mu.Unlock() }

	const failLimit = 3
	dead := make(map[int]bool) // filled before the first ProbeOnce only
	svc := newTestService(t, Config{
		Probe: func(r distrib.Resource) error {
			if dead[r.Peer] {
				return errors.New("probe: connection refused")
			}
			return nil
		},
		Now:           now,
		FailLimit:     failLimit,
		ProbeInterval: time.Second,
	})
	for _, name := range svc.HandoutAPI().Distributors() {
		dead[svc.Backend().Partition(name).Resources()[0].Peer] = true
	}
	wantRetired := make([]int, 0, len(dead))
	for peer := range dead {
		wantRetired = append(wantRetired, peer)
	}
	slices.Sort(wantRetired)

	read := func() (ProberState, error) {
		rw := httptest.NewRecorder()
		svc.DebugProber(rw, httptest.NewRequest("GET", "/debug/prober", nil))
		var st ProberState
		err := json.Unmarshal(rw.Body.Bytes(), &st)
		return st, err
	}
	if st, err := read(); err != nil || !st.SweptAt.IsZero() || st.Peers == nil || st.Retired == nil || len(st.Peers)+len(st.Retired) != 0 {
		t.Fatalf("before the first sweep: %+v, err %v", st, err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for sweep := 0; sweep < 40; sweep++ {
			svc.ProbeOnce(context.Background())
			advance(20 * time.Second) // past the 16 s backoff cap: every sweep re-probes
		}
	}()
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last time.Time
			for {
				st, err := read()
				switch {
				case err != nil:
					t.Errorf("decode /debug/prober: %v", err)
				case st.SweptAt.Before(last):
					t.Errorf("sweep time went backwards: %v after %v", st.SweptAt, last)
				case !slices.IsSortedFunc(st.Peers, func(a, b ProberPeer) int { return a.Peer - b.Peer }) || !slices.IsSorted(st.Retired):
					t.Errorf("snapshot not ascending: %+v", st)
				}
				last = st.SweptAt
				for _, peer := range st.Retired {
					i, ok := slices.BinarySearchFunc(st.Peers, peer, func(p ProberPeer, peer int) int { return p.Peer - peer })
					if !ok || st.Peers[i].Streak < failLimit {
						t.Errorf("retired bridge %d without its streak in %+v", peer, st.Peers)
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	readers.Wait()

	st := svc.ProberState()
	if !slices.Equal(st.Retired, wantRetired) {
		t.Fatalf("retired %v, want %v", st.Retired, wantRetired)
	}
	if len(st.Peers) != len(wantRetired) {
		t.Fatalf("streaks %+v, want one per dead bridge %v", st.Peers, wantRetired)
	}
	for i, p := range st.Peers {
		if p.Peer != wantRetired[i] || p.Streak != failLimit || !p.NextDue.After(time.Unix(1700000000, 0)) {
			t.Fatalf("peer entry %+v, want bridge %d at streak %d with a backoff", p, wantRetired[i], failLimit)
		}
	}
}
