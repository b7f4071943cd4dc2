//go:build !race

// Heap readings under the race detector are not comparable, so this file
// stays out of -race runs.

package distrib

import (
	"context"
	"runtime"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/censor"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// TestDroppedNetworksAreCollected: everything engines derive from a
// network — the address index, every day's owner table, the identity
// reverse map — is owned by the network (sim.Derive), so a process that
// builds, uses and drops networks one after another keeps a flat live
// heap. With process-global caches keyed by *sim.Network the reading
// grew by the whole network and its tables (≈ 12.7 MB here) per pass.
func TestDroppedNetworksAreCollected(t *testing.T) {
	pass := func(seed uint64) uint64 {
		n, err := sim.New(sim.Config{Seed: seed, Days: 45, TargetDailyPeers: 3050})
		if err != nil {
			t.Fatal(err)
		}
		censor.IndexFor(n)
		for day := 0; day < n.Days(); day++ {
			ownersFor(n, day)
		}
		sw, err := NewSweep(n, testSweepConfig(0))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sw.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		n, sw = nil, nil
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var heap []float64
	for seed := uint64(100); seed <= 105; seed++ {
		heap = append(heap, float64(pass(seed))/(1<<20))
	}
	t.Logf("live heap after each dropped network (MB): %.1f", heap)
	first, last := heap[0], heap[len(heap)-1]
	if grew := last - first; grew > 2 && grew > 0.05*first {
		t.Fatalf("live heap grew %.1f MB over five dropped networks (%.1f → %.1f MB): something pins them",
			grew, first, last)
	}
}
