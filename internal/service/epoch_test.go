package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"maps"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/i2pstudy/i2pstudy/internal/distrib"
	"github.com/i2pstudy/i2pstudy/internal/netdb"
	"github.com/i2pstudy/i2pstudy/internal/reseed"
)

const seedsPath = "/" + reseed.SeedFileName

// seedIdentityFor finds an identity whose manual-reseed arc currently
// holds peer.
func seedIdentityFor(t *testing.T, svc *Service, prefix string, peer int) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		id := fmt.Sprintf("%s-%d", prefix, i)
		h, err := svc.Serve(distrib.Request{Dist: "manual-reseed", ID: distrib.IdentityKey(id)})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range h.Resources {
			if r.Peer == peer {
				return id
			}
		}
	}
	t.Fatalf("no identity is served bridge %d", peer)
	return ""
}

// probeCount reads one i2pdistribd_probe_total series.
func probeCount(svc *Service, outcome string) uint64 {
	return svc.metrics.probe.With(outcome).Load()
}

// TestRetirementIsOneSwap: a reader that has seen a bridge retired is
// never again served it, on any endpoint. Per trial a reader spins on
// the epoch's retired set while the probe loop retires the victim, then fetches
// the seed bundle of an identity whose arc held it: the bundle must not
// carry the victim. When the retired set and the bundles were published
// one after the other, the reader landed between the two in most trials.
// Each trial also checks that the retirement mutated nothing its
// predecessor epoch holds and that no bundle of the successor carries a
// retired record.
func TestRetirementIsOneSwap(t *testing.T) {
	const trials = 200
	for trial := 0; trial < trials; {
		dead := make(map[int]bool) // written between sweeps only
		svc := newTestService(t, Config{
			FailLimit: 1,
			Probe: func(r distrib.Resource) error {
				if dead[r.Peer] {
					return errors.New("probe: connection refused")
				}
				return nil
			},
		})
		h := svc.Handler()
		res := svc.Backend().Partition("manual-reseed").Resources()
		identityOf := make(map[int]netdb.Hash, len(res))
		for _, r := range res {
			identityOf[r.Peer] = r.Record.Identity
		}

		// Every second ring position, so no arc loses all its bridges.
		for pos := 0; pos < len(res) && trial < trials; pos, trial = pos+2, trial+1 {
			victim := res[pos].Peer
			id := seedIdentityFor(t, svc, "swap", victim)

			before := svc.epoch.Load()
			retiredBefore := maps.Clone(before.retired)
			bundlesBefore := make([][]byte, len(res))
			for slot := range res {
				bundlesBefore[slot] = bytes.Clone(before.bundles.Bundle(slot))
			}

			dead[victim] = true
			torn := make(chan error, 1)
			go func() {
				for !svc.epoch.Load().retired[victim] {
					runtime.Gosched()
				}
				rw := get(t, h, seedsPath+"?id="+id, "")
				b, err := reseed.ParseBundle(rw.Body.Bytes())
				switch {
				case err != nil:
					torn <- fmt.Errorf("seed bundle (status %d): %w", rw.Code, err)
				case containsIdentity(b, identityOf[victim]):
					torn <- errors.New("bridge seen retired still served in the seed bundle")
				default:
					torn <- nil
				}
			}()
			svc.ProbeOnce(context.Background())
			if err := <-torn; err != nil {
				t.Fatalf("trial %d, bridge %d: %v", trial, victim, err)
			}

			if !maps.Equal(before.retired, retiredBefore) {
				t.Fatalf("trial %d: retirement mutated its predecessor's retired set", trial)
			}
			after := svc.epoch.Load()
			if after == before || len(after.retired) != len(before.retired)+1 || !after.retired[victim] {
				t.Fatalf("trial %d: successor retired set %v after %v", trial, after.retired, before.retired)
			}
			for slot := range res {
				if !bytes.Equal(before.bundles.Bundle(slot), bundlesBefore[slot]) {
					t.Fatalf("trial %d: retirement mutated its predecessor's bundle for slot %d", trial, slot)
				}
				b, err := reseed.ParseBundle(after.bundles.Bundle(slot))
				if err != nil {
					t.Fatalf("trial %d: successor bundle for slot %d: %v", trial, slot, err)
				}
				for peer := range after.retired {
					if containsIdentity(b, identityOf[peer]) {
						t.Fatalf("trial %d: successor bundle for slot %d carries retired bridge %d", trial, slot, peer)
					}
				}
			}
		}
	}
}

// TestEpochIsTheWholeDay: publishing day 11's epoch on a service built
// for day 10 leaves it indistinguishable from one built for day 11 —
// handouts, seed bundles, pool gauges and the simulated probe alike — so
// nothing that depends on the day lives outside the epoch.
func TestEpochIsTheWholeDay(t *testing.T) {
	rotated := newTestService(t, Config{Day: 10, FailLimit: 1})
	fresh := newTestService(t, Config{Day: 11, FailLimit: 1})
	targets := func(i int) []string {
		return []string{
			fmt.Sprintf("/handout?dist=https&id=day-%d", i),
			fmt.Sprintf("/handout?dist=social&id=day-%d&attempt=%d", i, 1+i%2),
			fmt.Sprintf("%s?id=day-%d", seedsPath, i),
		}
	}
	poolGauges := func(svc *Service) string {
		var lines []string
		for _, line := range strings.Split(svc.metrics.Render(), "\n") {
			if strings.HasPrefix(line, "i2pdistribd_pool_size{") {
				lines = append(lines, line)
			}
		}
		return strings.Join(lines, "\n")
	}
	differing := func() (n int) {
		hr, hf := rotated.Handler(), fresh.Handler()
		for i := 0; i < 300; i++ {
			for _, target := range targets(i) {
				r, f := get(t, hr, target, ""), get(t, hf, target, "")
				if f.Code != http.StatusOK {
					t.Fatalf("GET %s: status %d", target, f.Code)
				}
				if r.Code != f.Code || !bytes.Equal(r.Body.Bytes(), f.Body.Bytes()) {
					n++
				}
			}
		}
		return n
	}
	if differing() == 0 {
		t.Fatal("days 10 and 11 serve the same bytes; the comparison is vacuous")
	}

	ep, err := rotated.newEpoch(11)
	if err != nil {
		t.Fatal(err)
	}
	rotated.publish(ep)
	if n := differing(); n != 0 {
		t.Fatalf("%d responses differ between a service rotated to day 11 and one built on it", n)
	}
	if r, f := poolGauges(rotated), poolGauges(fresh); r != f || r == "" {
		t.Fatalf("pool gauges after rotation:\n%s\nbuilt on day 11:\n%s", r, f)
	}
	// The default probe asks whether a peer is online on the day served.
	rotated.ProbeOnce(context.Background())
	fresh.ProbeOnce(context.Background())
	if r, f := rotated.ProberState().Retired, fresh.ProberState().Retired; fmt.Sprint(r) != fmt.Sprint(f) {
		t.Fatalf("a sweep after rotation retired %v, on a day-11 service %v", r, f)
	}
}

// TestFailedRetirementPublishesNothing: when the successor epoch cannot
// be built (here: a record whose version string the RouterInfo codec
// refuses to encode) the sweep returns, nothing is retired on any
// endpoint or counter, the failure is logged with the peers it held
// back, and the bridge retires on the first sweep past its backoff that
// can build.
func TestFailedRetirementPublishesNothing(t *testing.T) {
	clk := time.Unix(1700000000, 0)

	// slog.SetDefault also points the log package at the new handler;
	// put both back.
	var logged bytes.Buffer
	defer func(l *slog.Logger, w io.Writer, flags int) {
		slog.SetDefault(l)
		log.SetOutput(w)
		log.SetFlags(flags)
	}(slog.Default(), log.Writer(), log.Flags())
	slog.SetDefault(slog.New(slog.NewTextHandler(&logged, nil)))

	var victim int
	svc := newTestService(t, Config{
		FailLimit:     1,
		ProbeInterval: time.Second,
		Now:           func() time.Time { return clk },
		Probe: func(r distrib.Resource) error {
			if r.Peer == victim {
				return errors.New("probe: connection refused")
			}
			return nil
		},
	})
	h := svc.Handler()
	manual := svc.Backend().Partition("manual-reseed").Resources()
	bridge := manual[0]
	victim = bridge.Peer
	victimID := seedIdentityFor(t, svc, "failed", victim)
	var targets []string
	for _, id := range []string{victimID, "alice", "bob", "carol-7"} {
		targets = append(targets, "/handout?dist=manual-reseed&id="+id, "/handout?id="+id, seedsPath+"?id="+id)
	}
	bodies := func() (out [][]byte) {
		for _, target := range targets {
			rw := get(t, h, target, "")
			if rw.Code != http.StatusOK {
				t.Fatalf("GET %s: status %d", target, rw.Code)
			}
			out = append(out, rw.Body.Bytes())
		}
		return out
	}
	before := bodies()

	// A second bridge of the partition, still live, carries a record no
	// bundle can hold, so every rebuild of the bundle set fails.
	broken := manual[1].Record
	version := broken.Version
	broken.Version = strings.Repeat("v", 256)
	svc.ProbeOnce(context.Background())
	if svc.epoch.Load().retired[victim] || svc.RetiredCount() != 0 {
		t.Fatalf("a retirement that could not be built retired %d bridges", svc.RetiredCount())
	}
	if fail, retired := probeCount(svc, "fail"), probeCount(svc, "retired"); fail != 1 || retired != 0 {
		t.Fatalf("after the failed retirement: fail=%d retired=%d, want the one failed probe and nothing retired", fail, retired)
	}
	for i, body := range bodies() {
		if !bytes.Equal(body, before[i]) {
			t.Fatalf("GET %s changed under a retirement that published nothing", targets[i])
		}
	}
	if line := logged.String(); !strings.Contains(line, "level=ERROR") || !strings.Contains(line, fmt.Sprintf("peers=[%d]", victim)) {
		t.Fatalf("failed retirement of bridge %d not logged: %q", victim, line)
	}

	broken.Version = version
	clk = clk.Add(2 * time.Second)
	svc.ProbeOnce(context.Background())
	if !svc.epoch.Load().retired[victim] || svc.RetiredCount() != 1 {
		t.Fatalf("bridge not retired by the sweep after its backoff (retired=%d)", svc.RetiredCount())
	}
	if fail, retired := probeCount(svc, "fail"), probeCount(svc, "retired"); fail != 2 || retired != 1 {
		t.Fatalf("after the retry: fail=%d retired=%d, want 2 and 1", fail, retired)
	}
	b, err := reseed.ParseBundle(get(t, h, seedsPath+"?id="+victimID, "").Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if containsIdentity(b, bridge.Record.Identity) {
		t.Fatal("seed bundle still carries the retired record")
	}
}
