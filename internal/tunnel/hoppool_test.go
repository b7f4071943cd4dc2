package tunnel

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/netdb"
)

// referenceSelectHops is SelectHops as it stood before HopPool, verbatim
// but for float64(s.weight(ri)): the filter-and-scan every Select must
// reproduce draw for draw.
func referenceSelectHops(s Selector, candidates []*netdb.RouterInfo, n int, exclude map[netdb.Hash]bool, rng *rand.Rand) ([]netdb.Hash, error) {
	if n <= 0 || n > MaxHops {
		return nil, fmt.Errorf("tunnel: invalid hop count %d", n)
	}
	type cand struct {
		h netdb.Hash
		w float64
	}
	pool := make([]cand, 0, len(candidates))
	total := 0.0
	for _, ri := range candidates {
		if !s.Eligible(ri) || (exclude != nil && exclude[ri.Identity]) {
			continue
		}
		w := float64(s.weight(ri))
		pool = append(pool, cand{ri.Identity, w})
		total += w
	}
	if len(pool) < n {
		return nil, fmt.Errorf("%w: need %d, have %d", ErrNotEnoughPeers, n, len(pool))
	}
	hops := make([]netdb.Hash, 0, n)
	for len(hops) < n {
		x := rng.Float64() * total
		idx := -1
		for i := range pool {
			x -= pool[i].w
			if x <= 0 {
				idx = i
				break
			}
		}
		if idx < 0 {
			idx = len(pool) - 1
		}
		hops = append(hops, pool[idx].h)
		total -= pool[idx].w
		pool[idx] = pool[len(pool)-1]
		pool = pool[:len(pool)-1]
	}
	return hops, nil
}

// mixedSet returns a candidate set with exactly `eligible` records the
// default policy accepts, in every weight class, interleaved with records
// it rejects for each reason Eligible knows: L class, unreachable, hidden,
// nil.
func mixedSet(eligible int) (cands []*netdb.RouterInfo, ineligible netdb.Hash) {
	id := uint64(0)
	next := func(rate int, reachable bool) *netdb.RouterInfo {
		id++
		return makeRI(id, rate, reachable)
	}
	low := next(20, true)
	cands = append(cands, low)
	for i := 0; i < eligible; i++ {
		cands = append(cands, next([]int{60, 100, 300, 1000, 3000}[i%5], true))
		switch i % 4 {
		case 0:
			cands = append(cands, next(20, true))
		case 1:
			cands = append(cands, next(3000, false))
		case 2:
			hidden := next(3000, true)
			hidden.Caps.Hidden = true
			cands = append(cands, hidden)
		case 3:
			cands = append(cands, nil)
		}
	}
	return cands, low.Identity
}

func TestHopPoolSelectMatchesReference(t *testing.T) {
	sel := DefaultSelector()
	for n := 1; n <= MaxHops; n++ {
		for _, size := range []int{n - 1, n, n + 1, 37, 5001} {
			cands, ineligible := mixedSet(size)
			pool := sel.Prepare(cands)
			if len(pool.ids) != size {
				t.Fatalf("pool of %d eligible holds %d", size, len(pool.ids))
			}
			var live []netdb.Hash
			for _, ri := range cands {
				if sel.Eligible(ri) {
					live = append(live, ri.Identity)
				}
			}
			excludes := map[string]map[netdb.Hash]bool{
				"nil":        nil,
				"empty":      {},
				"absent":     {netdb.HashFromUint64(1 << 40): true},
				"ineligible": {ineligible: true},
			}
			if size > 0 {
				excludes["owner"] = map[netdb.Hash]bool{live[0]: true}
				excludes["false"] = map[netdb.Hash]bool{live[0]: false}
				several := map[netdb.Hash]bool{ineligible: true, netdb.HashFromUint64(1 << 41): true}
				// First, last and a spread in between, more than the
				// stack-backed exclude list holds.
				for i := 0; i < 2*MaxHops+3 && i < size; i++ {
					several[live[(i*7)%size]] = true
				}
				several[live[size-1]] = true
				excludes["several"] = several
			}
			for name, exclude := range excludes {
				for seed := uint64(1); seed <= 10; seed++ {
					ref, got := rand.New(rand.NewPCG(seed, 5)), rand.New(rand.NewPCG(seed, 5))
					// Several selections on one stream, so a stream left
					// one draw off shows in the next selection too.
					for round := 0; round < 3; round++ {
						want, wantErr := referenceSelectHops(sel, cands, n, exclude, ref)
						hops, err := pool.Select(n, exclude, got)
						if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
							t.Fatalf("n=%d size=%d exclude=%s: err %v, reference %v", n, size, name, err, wantErr)
						}
						if errors.Is(wantErr, ErrNotEnoughPeers) != errors.Is(err, ErrNotEnoughPeers) {
							t.Fatalf("n=%d size=%d exclude=%s: err %v does not wrap like %v", n, size, name, err, wantErr)
						}
						if !slices.Equal(hops, want) {
							t.Fatalf("n=%d size=%d exclude=%s seed=%d round=%d:\n got %v\nwant %v", n, size, name, seed, round, hops, want)
						}
					}
					if got.Uint64() != ref.Uint64() {
						t.Fatalf("n=%d size=%d exclude=%s seed=%d: stream position differs after the draws", n, size, name, seed)
					}
				}
			}
		}
	}
}

// The one-shot form and the rejected hop counts go through the same pool.
func TestSelectHopsIsPrepareSelect(t *testing.T) {
	sel := Selector{MinClass: netdb.ClassK, AllowUnreachable: true}
	cands, _ := mixedSet(50)
	for _, n := range []int{-1, 0, 3, MaxHops, MaxHops + 1} {
		ref, got := testRNG(), testRNG()
		want, wantErr := referenceSelectHops(sel, cands, n, nil, ref)
		hops, err := sel.SelectHops(cands, n, nil, got)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !slices.Equal(hops, want) || got.Uint64() != ref.Uint64() {
			t.Fatalf("n=%d: got %v, %v; reference %v, %v", n, hops, err, want, wantErr)
		}
	}
}

// A pool holds one entry per identity, so hops stay distinct even when
// the candidate list repeats a record.
func TestHopPoolKeepsOneEntryPerIdentity(t *testing.T) {
	cands := candidateSet(12)
	pool := DefaultSelector().Prepare(append(cands, cands...))
	if want := len(DefaultSelector().Prepare(cands).ids); len(pool.ids) != want {
		t.Fatalf("doubled candidates: pool holds %d, want %d", len(pool.ids), want)
	}
}

func TestHopPoolSelectAllocatesOnlyTheHops(t *testing.T) {
	cands, _ := mixedSet(5001)
	pool := DefaultSelector().Prepare(cands)
	owner := map[netdb.Hash]bool{cands[1].Identity: true}
	rng := testRNG()
	for name, exclude := range map[string]map[netdb.Hash]bool{"nil": nil, "owner": owner} {
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := pool.Select(MaxHops, exclude, rng); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("exclude=%s: Select allocates %.0f times, want at most 1", name, allocs)
		}
	}
}

// One pool serves many goroutines: each selection equals what the same
// stream yields serially. Run under -race.
func TestHopPoolConcurrentSelect(t *testing.T) {
	cands, _ := mixedSet(5001)
	pool := DefaultSelector().Prepare(cands)
	exclude := map[netdb.Hash]bool{cands[1].Identity: true}
	const workers, rounds = 8, 200
	run := func(w int) [][]netdb.Hash {
		rng := rand.New(rand.NewPCG(uint64(w), 3))
		out := make([][]netdb.Hash, rounds)
		for i := range out {
			hops, err := pool.Select(1+i%MaxHops, exclude, rng)
			if err != nil {
				t.Error(err)
			}
			out[i] = hops
		}
		return out
	}
	serial := make([][][]netdb.Hash, workers)
	for w := range serial {
		serial[w] = run(w)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, hops := range run(w) {
				if !slices.Equal(hops, serial[w][i]) {
					t.Errorf("worker %d round %d: concurrent %v, serial %v", w, i, hops, serial[w][i])
				}
			}
		}(w)
	}
	wg.Wait()
}

// benchCandidates is a netDb the size of the victim's at paper scale.
func benchCandidates() []*netdb.RouterInfo {
	cands, _ := mixedSet(10000) // 20 001 records, half of them eligible
	return cands
}

var benchSink int

func BenchmarkHopPoolPrepare(b *testing.B) {
	cands := benchCandidates()
	sel := DefaultSelector()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += len(sel.Prepare(cands).ids)
	}
}

func BenchmarkHopPoolSelect(b *testing.B) {
	pool := DefaultSelector().Prepare(benchCandidates())
	rng := testRNG()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hops, err := pool.Select(2*DefaultHops, nil, rng)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(hops)
	}
}
