//go:build !race

// Allocation counts are not comparable under the race detector (its
// sync.Pool drops items at random), so this file stays out of -race runs.

package censor

import "testing"

// TestHoldersAllocatesNothing: a warm Holders call takes its decided
// marks from the pool and allocates nothing, so a sweep cell asking it
// once per horizon day allocates nothing address-table-sized.
func TestHoldersAllocatesNothing(t *testing.T) {
	n := network(t)
	ix := NewAddrIndex(n)
	day := n.Days() / 2
	bl := ix.NewSet()
	for k, idx := range n.ActivePeers(day) {
		if k%3 == 0 {
			v4, v6 := ix.addrs.PeerIDs(int(idx), day)
			bl.Add(v4)
			bl.Add(v6)
		}
	}
	held := 0
	count := func(int32, int) { held++ }
	ix.Holders(bl, day, count) // builds the day column and fills the pool
	want := held
	if want == 0 {
		t.Fatal("no blacklisted address has a holder")
	}
	if allocs := testing.AllocsPerRun(20, func() {
		held = 0
		ix.Holders(bl, day, count)
	}); allocs != 0 {
		t.Fatalf("a warm Holders call allocates %.1f times", allocs)
	}
	if held != want {
		t.Fatalf("warm call reports %d holders, the first %d", held, want)
	}
}
