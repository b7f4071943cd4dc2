package distrib

import (
	"slices"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/censor"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// TestOwnersEpochShared: the owner tables are shared per network, not per
// process — repeated lookups on one network (and therefore repeated
// Sweeps on it) receive the same slice instead of rebuilding it, a
// second network built from the same config gets equal content in its
// own table — and the cached table matches the from-scratch reference.
func TestOwnersEpochShared(t *testing.T) {
	n := network(t)
	day := 12
	a := ownersFor(n, day)
	b := ownersFor(n, day)
	if len(a) == 0 || &a[0] != &b[0] {
		t.Fatal("owner table not shared across lookups")
	}
	twin, err := sim.New(n.Config())
	if err != nil {
		t.Fatal(err)
	}
	if c := ownersFor(twin, day); &c[0] == &a[0] || !slices.Equal(c, a) {
		t.Fatal("an identically configured network must own a distinct, equal owner table")
	}
	rev := peerIndexByHash(n)
	for _, p := range n.Peers {
		if idx, ok := rev[p.ID]; !ok || idx != p.Index {
			t.Fatalf("reverse map resolves peer %d to %d (present %v)", p.Index, idx, ok)
		}
	}
	ref := buildOwners(n, day)
	if len(a) != len(ref) {
		t.Fatalf("cached table has %d entries, reference %d", len(a), len(ref))
	}
	for i := range ref {
		if a[i] != ref[i] {
			t.Fatalf("owner mismatch at addr %d: cached %d, reference %d", i, a[i], ref[i])
		}
	}
	// Semantic check against the index: every owned address resolves back
	// to a known-IP peer publishing it that day.
	ix := censor.IndexFor(n)
	owned := 0
	for id, peer := range ref {
		if peer < 0 {
			continue
		}
		owned++
		if n.Peers[peer].Status != sim.StatusKnownIP {
			t.Fatalf("addr %d owned by non-known-IP peer %d", id, peer)
		}
		v4, v6 := ix.PeerIDs(int(peer), day)
		if v4 != int32(id) && v6 != int32(id) {
			t.Fatalf("addr %d owned by peer %d which does not publish it on day %d", id, peer, day)
		}
	}
	if owned == 0 {
		t.Fatal("no address has an owner")
	}
}
