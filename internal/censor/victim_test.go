package censor

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// referenceAddrSet is the victim's netDb addresses on day computed the
// long way, from the observer's peer-index lists: for every peer observed
// within the netDb window (today fully, earlier days subject to expiry),
// the addresses the peer published on the observation day.
func referenceAddrSet(v *Victim, day int) *AddrSet {
	set := v.ix.NewSet()
	for d := max(day-netDbWindowDays+1, 0); d <= day; d++ {
		for _, idx := range v.obs.ObserveDay(d) {
			if d < day && !retainStale(idx, d) {
				continue
			}
			if v.net.Peers[idx].Status != sim.StatusKnownIP {
				continue
			}
			v4, v6 := v.ix.addrs.PeerIDs(idx, d)
			set.Add(v4)
			set.Add(v6)
		}
	}
	return set
}

// referenceKnownPeers is the victim's known peers on day computed the
// long way: a map-based dedup of the window's sightings in observation
// order, so the first sighting of a peer fixes its place.
func referenceKnownPeers(v *Victim, day int) []int {
	seen := make(map[int]bool)
	var out []int
	for d := max(day-netDbWindowDays+1, 0); d <= day; d++ {
		for _, idx := range v.obs.ObserveDay(d) {
			if d < day && !retainStale(idx, d) {
				continue
			}
			if !seen[idx] {
				seen[idx] = true
				out = append(out, idx)
			}
		}
	}
	return out
}

// TestVictimViewMatchesReference: the one-walk netDb view equals both
// references on every study day, on networks of two seeds.
func TestVictimViewMatchesReference(t *testing.T) {
	for _, seed := range []uint64{2018, 424242} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			n, err := sim.New(sim.Config{Seed: seed, Days: 40, TargetDailyPeers: 1200})
			if err != nil {
				t.Fatal(err)
			}
			v := NewVictim(n, seed+10_000)
			for day := 0; day < n.Days(); day++ {
				set, ref := v.addrSet(day), referenceAddrSet(v, day)
				if !reflect.DeepEqual(set.words, ref.words) || set.Len() != ref.Len() {
					t.Fatalf("day %d: the view's addresses differ from the reference", day)
				}
				if got, want := v.KnownPeers(day), referenceKnownPeers(v, day); !reflect.DeepEqual(got, want) {
					t.Fatalf("day %d: the view's known peers differ from the reference", day)
				}
			}
		})
	}
}

// TestVictimViewsMemoized: the per-day netDb view is built once and
// shared — a revisit returns the same set and the same slice.
func TestVictimViewsMemoized(t *testing.T) {
	v := NewVictim(network(t), 424)
	day := 17
	set, peers := v.addrSet(day), v.KnownPeers(day)
	if len(peers) == 0 {
		t.Fatal("victim knows nothing")
	}
	if v.addrSet(day) != set {
		t.Fatal("addrSet not memoized")
	}
	if got := v.KnownPeers(day); &got[0] != &peers[0] || len(got) != len(peers) {
		t.Fatal("KnownPeers not memoized")
	}
}
