package tunnel

import (
	"errors"
	"math/rand/v2"
	"net/netip"
	"testing"
	"time"

	"github.com/i2pstudy/i2pstudy/internal/netdb"
)

func testRNG() *rand.Rand { return rand.New(rand.NewPCG(11, 7)) }

func makeRI(id uint64, rateKBps int, reachable bool) *netdb.RouterInfo {
	ri := &netdb.RouterInfo{
		Identity:  netdb.HashFromUint64(id),
		Published: time.Date(2018, 2, 1, 0, 0, 0, 0, time.UTC),
		Caps:      netdb.NewCaps(rateKBps, false, reachable),
		Version:   "0.9.34",
	}
	if reachable {
		ri.Addresses = []netdb.RouterAddress{{
			Transport: netdb.TransportNTCP,
			Addr:      netip.AddrFrom4([4]byte{10, byte(id >> 8), byte(id), 1}),
			Port:      12345,
		}}
	}
	return ri
}

// candidatesOf reads records as hop selection does, through CandidateOf.
func candidatesOf(records []*netdb.RouterInfo) []Candidate {
	out := make([]Candidate, len(records))
	for i, ri := range records {
		out[i] = CandidateOf(ri)
	}
	return out
}

func candidateSet(n int) []*netdb.RouterInfo {
	out := make([]*netdb.RouterInfo, 0, n)
	for i := 1; i <= n; i++ {
		rate := []int{20, 100, 300, 3000}[i%4]
		out = append(out, makeRI(uint64(i), rate, true))
	}
	return out
}

func TestSelectorEligibility(t *testing.T) {
	sel := DefaultSelector()
	eligible := func(s Selector, ri *netdb.RouterInfo) bool { return s.Eligible(CandidateOf(ri)) }
	if eligible(sel, nil) {
		t.Fatal("nil record eligible")
	}
	if eligible(sel, makeRI(1, 20, true)) {
		t.Fatal("L-class peer must be excluded by default policy")
	}
	if !eligible(sel, makeRI(2, 100, true)) {
		t.Fatal("N-class reachable peer must be eligible")
	}
	if eligible(sel, makeRI(3, 100, false)) {
		t.Fatal("unreachable peer eligible under default policy")
	}
	hidden := makeRI(4, 100, true)
	hidden.Caps.Hidden = true
	if eligible(sel, hidden) {
		t.Fatal("hidden peer must never route")
	}
	firewalled := makeRI(5, 100, true)
	firewalled.Addresses = []netdb.RouterAddress{{
		Transport:   netdb.TransportSSU,
		Introducers: []netdb.Introducer{{Hash: netdb.HashFromUint64(9), Addr: netip.MustParseAddr("198.51.100.1"), Port: 9000}},
	}}
	if eligible(sel, firewalled) {
		t.Fatal("firewalled peer must not be selected as a hop")
	}

	loose := Selector{MinClass: netdb.ClassK, AllowUnreachable: true}
	if !eligible(loose, makeRI(6, 20, true)) {
		t.Fatal("loose policy should accept L peers")
	}
}

func TestSelectHopsDistinctAndExcluded(t *testing.T) {
	sel := DefaultSelector()
	rng := testRNG()
	cands := candidatesOf(candidateSet(40))
	exclude := map[netdb.Hash]bool{cands[1].Identity: true}
	for trial := 0; trial < 50; trial++ {
		hops, err := sel.Prepare(cands).Select(3, exclude, rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(hops) != 3 {
			t.Fatalf("got %d hops", len(hops))
		}
		seen := make(map[netdb.Hash]bool)
		for _, h := range hops {
			if seen[h] {
				t.Fatal("duplicate hop selected")
			}
			if exclude[h] {
				t.Fatal("excluded hop selected")
			}
			seen[h] = true
		}
	}
}

func TestSelectHopsPrefersHighBandwidth(t *testing.T) {
	sel := DefaultSelector()
	rng := testRNG()
	cands := candidatesOf(candidateSet(40))
	classCount := make(map[netdb.BandwidthClass]int)
	for trial := 0; trial < 2000; trial++ {
		hops, err := sel.Prepare(cands).Select(1, nil, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cands {
			if c.Identity == hops[0] {
				classCount[c.Caps.Class]++
			}
		}
	}
	if classCount[netdb.ClassX] <= classCount[netdb.ClassN] {
		t.Fatalf("X peers (%d) must be selected more than N peers (%d)",
			classCount[netdb.ClassX], classCount[netdb.ClassN])
	}
}

func TestSelectHopsErrors(t *testing.T) {
	sel := DefaultSelector()
	rng := testRNG()
	if _, err := sel.Prepare(candidatesOf(candidateSet(2))).Select(5, nil, rng); !errors.Is(err, ErrNotEnoughPeers) {
		t.Fatalf("want ErrNotEnoughPeers, got %v", err)
	}
	if _, err := sel.Prepare(candidatesOf(candidateSet(10))).Select(0, nil, rng); err == nil {
		t.Fatal("hop count 0 accepted")
	}
	if _, err := sel.Prepare(candidatesOf(candidateSet(10))).Select(MaxHops+1, nil, rng); err == nil {
		t.Fatal("hop count beyond MaxHops accepted")
	}
}
