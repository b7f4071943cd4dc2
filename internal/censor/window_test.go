package censor

import (
	"math/rand/v2"
	"reflect"
	"testing"
)

// counterSnapshot captures a WindowCounter's full state — counts, set
// bits and cardinality — for exact before/after comparison.
func counterSnapshot(w *WindowCounter) ([]int32, []uint64, int) {
	return append([]int32(nil), w.counts...),
		append([]uint64(nil), w.set.words...),
		w.set.Len()
}

// randomSlices draws day-slices like the memoized observedIDs slices:
// sorted-ish runs of interned IDs with duplicates across (and within)
// slices, plus the occasional -1 an absent address contributes.
func randomSlices(rng *rand.Rand, n, maxLen, numAddrs int) [][]int32 {
	out := make([][]int32, n)
	for i := range out {
		l := rng.IntN(maxLen + 1)
		s := make([]int32, 0, l)
		for j := 0; j < l; j++ {
			if rng.IntN(20) == 0 {
				s = append(s, -1)
				continue
			}
			s = append(s, int32(rng.IntN(numAddrs)))
		}
		out[i] = s
	}
	return out
}

// TestWindowCounterRemoveDayInvertsAddDay is the expiry-count
// invariant's exactness guarantee: for any base window state and any
// batch of added slices, removing the batch (in any order) restores
// counts, set bits and cardinality bit for bit, and draining everything
// returns the counter to empty.
func TestWindowCounterRemoveDayInvertsAddDay(t *testing.T) {
	n := network(t)
	ix := IndexFor(n)
	rng := rand.New(rand.NewPCG(2024, 7))
	for trial := 0; trial < 20; trial++ {
		wc := ix.NewWindowCounter()
		base := randomSlices(rng, 1+rng.IntN(5), 200, ix.NumAddrs())
		for _, s := range base {
			wc.AddDay(s)
		}
		wantCounts, wantWords, wantLen := counterSnapshot(wc)

		batch := randomSlices(rng, 1+rng.IntN(5), 200, ix.NumAddrs())
		for _, s := range batch {
			wc.AddDay(s)
		}
		// Remove in a shuffled order: inversion must not depend on it.
		for _, i := range rng.Perm(len(batch)) {
			wc.RemoveDay(batch[i])
		}
		counts, words, l := counterSnapshot(wc)
		if !reflect.DeepEqual(counts, wantCounts) || !reflect.DeepEqual(words, wantWords) || l != wantLen {
			t.Fatalf("trial %d: RemoveDay did not invert AddDay (len %d -> %d)", trial, wantLen, l)
		}

		for _, i := range rng.Perm(len(base)) {
			wc.RemoveDay(base[i])
		}
		if wc.Len() != 0 {
			t.Fatalf("trial %d: drained counter has %d members", trial, wc.Len())
		}
		for id, c := range wc.counts {
			if c != 0 {
				t.Fatalf("trial %d: drained counter keeps count %d at id %d", trial, c, id)
			}
		}
	}
}

// TestWindowCounterMatchesSetUnion: the live membership set always
// equals the from-scratch AddrSet union of the currently-held slices.
func TestWindowCounterMatchesSetUnion(t *testing.T) {
	n := network(t)
	ix := IndexFor(n)
	rng := rand.New(rand.NewPCG(99, 3))
	wc := ix.NewWindowCounter()
	var held [][]int32
	check := func() {
		t.Helper()
		ref := ix.NewSet()
		for _, s := range held {
			ref.AddAll(s)
		}
		if !reflect.DeepEqual(wc.Set().words, ref.words) || wc.Len() != ref.Len() {
			t.Fatalf("live set diverged from union of %d slices (%d vs %d members)",
				len(held), wc.Len(), ref.Len())
		}
	}
	for step := 0; step < 60; step++ {
		if len(held) > 0 && rng.IntN(3) == 0 {
			// Expire the oldest slice, like a window sliding forward.
			wc.RemoveDay(held[0])
			held = held[1:]
		} else {
			s := randomSlices(rng, 1, 150, ix.NumAddrs())[0]
			wc.AddDay(s)
			held = append(held, s)
		}
		check()
	}
	for _, s := range held {
		wc.RemoveDay(s)
	}
	held = nil
	check()
}

// TestWindowCounterEnterHook: AddDayFunc fires onEnter exactly when an
// address's count transitions 0 -> 1, and Has/Len/Set stay consistent.
func TestWindowCounterEnterHook(t *testing.T) {
	n := network(t)
	ix := IndexFor(n)
	wc := ix.NewWindowCounter()
	var entered []int32
	hook := func(id int32) { entered = append(entered, id) }
	wc.AddDayFunc([]int32{3, 5, 3, -1, 7}, hook)
	if !reflect.DeepEqual(entered, []int32{3, 5, 7}) {
		t.Fatalf("entered = %v, want [3 5 7]", entered)
	}
	wc.AddDayFunc([]int32{5, 7, 9}, hook)
	if !reflect.DeepEqual(entered, []int32{3, 5, 7, 9}) {
		t.Fatalf("entered = %v, want [3 5 7 9]", entered)
	}
	if wc.Len() != 4 || !wc.Has(3) || wc.Has(-1) || wc.Has(4) {
		t.Fatalf("membership wrong: len %d", wc.Len())
	}
	// 5 and 7 are held twice: removing one slice keeps them; 3 leaves.
	wc.RemoveDay([]int32{3, 5, 3, -1, 7})
	if wc.Has(3) || !wc.Has(5) || !wc.Has(7) || !wc.Has(9) || wc.Len() != 3 {
		t.Fatalf("after removal: len %d", wc.Len())
	}
}

func TestAddrSetRemoveAndClone(t *testing.T) {
	n := network(t)
	ix := IndexFor(n)
	s := ix.NewSet()
	s.AddAll([]int32{1, 64, 65})
	if s.Remove(-1) || s.Remove(2) {
		t.Fatal("removing a non-member must report false")
	}
	if !s.Remove(64) || s.Has(64) || s.Len() != 2 {
		t.Fatalf("Remove(64) broken: len %d", s.Len())
	}
	c := s.Clone()
	if !reflect.DeepEqual(c.words, s.words) || c.Len() != s.Len() {
		t.Fatal("clone differs")
	}
	s.Add(500)
	if c.Has(500) || c.Len() != 2 {
		t.Fatal("clone not independent of the original")
	}
}

// checkExpiryInvariant asserts the expiry-count invariant exactly:
// live membership == {addr : count > 0}, bit for bit and in cardinality.
func checkExpiryInvariant(t *testing.T, wc *WindowCounter, step int) {
	t.Helper()
	live := 0
	for id, c := range wc.counts {
		if c < 0 {
			t.Fatalf("step %d: negative count %d at id %d", step, c, id)
		}
		if has := wc.Has(int32(id)); has != (c > 0) {
			t.Fatalf("step %d: id %d has count %d but membership %v", step, id, c, has)
		}
		if c > 0 {
			live++
		}
	}
	if wc.Len() != live {
		t.Fatalf("step %d: Len() = %d, counts say %d", step, wc.Len(), live)
	}
}

// TestWindowCounterInterleavingInvariant generalizes
// TestWindowCounterRemoveDayInvertsAddDay from batch inversion to
// arbitrary interleavings: any random sequence of AddDay and RemoveDay
// ops — removing only slices previously added, in any order, including
// empty day-slices and windows wider than the horizon (phases where
// nothing ever expires) — preserves the expiry-count invariant
// live == {addr : count > 0} after every single operation.
func TestWindowCounterInterleavingInvariant(t *testing.T) {
	n := network(t)
	ix := IndexFor(n)
	rng := rand.New(rand.NewPCG(2026, 11))
	for trial := 0; trial < 8; trial++ {
		wc := ix.NewWindowCounter()
		var held [][]int32
		// removeP is the per-step removal probability; trial 0 runs at
		// zero — the window-wider-than-horizon regime, where the window
		// only ever accumulates.
		removeP := 0
		if trial > 0 {
			removeP = 1 + rng.IntN(3) // remove 1-in-4 .. 3-in-4 steps
		}
		steps := 80 + rng.IntN(80)
		for step := 0; step < steps; step++ {
			if len(held) > 0 && rng.IntN(4) < removeP {
				// Expire a uniformly random held slice — not the
				// oldest: inversion must not depend on expiry order.
				i := rng.IntN(len(held))
				wc.RemoveDay(held[i])
				held[i] = held[len(held)-1]
				held = held[:len(held)-1]
			} else {
				var s []int32
				if rng.IntN(5) > 0 { // 1-in-5 slices stay empty
					s = randomSlices(rng, 1, 120, ix.NumAddrs())[0]
				}
				wc.AddDay(s)
				held = append(held, s)
			}
			checkExpiryInvariant(t, wc, step)
		}
		// Drain in random order: the invariant holds at every step and
		// the counter ends exactly empty.
		for _, i := range rng.Perm(len(held)) {
			wc.RemoveDay(held[i])
			checkExpiryInvariant(t, wc, -1)
		}
		if wc.Len() != 0 {
			t.Fatalf("trial %d: drained counter has %d members", trial, wc.Len())
		}
	}
}
