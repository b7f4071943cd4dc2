package distrib

import (
	"slices"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/censor"
	"github.com/i2pstudy/i2pstudy/internal/netdb"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// referenceOwners is the reference for censor.AddrIndex.Holders: the day's
// addrID -> publishing-peer table (owners[addrID] = the last known-IP
// active peer, in ActivePeers(day) order, publishing the address that
// day, or -1).
func referenceOwners(n *sim.Network, day int) []int32 {
	ix := censor.IndexFor(n)
	owners := make([]int32, ix.NumAddrs())
	for i := range owners {
		owners[i] = -1
	}
	for _, idx := range n.ActivePeers(day) {
		if n.Peers[idx].Status != sim.StatusKnownIP {
			continue
		}
		v4, v6 := n.AddrTable().PeerIDs(int(idx), day)
		if v4 >= 0 {
			owners[v4] = idx
		}
		if v6 >= 0 {
			owners[v6] = idx
		}
	}
	return owners
}

// holderCounts counts, per address, the known-IP active peers publishing
// it on day: where it exceeds one, referenceOwners' last-wins rule decides.
func holderCounts(n *sim.Network, day int) []int {
	ix := censor.IndexFor(n)
	counts := make([]int, ix.NumAddrs())
	for _, idx := range n.ActivePeers(day) {
		if n.Peers[idx].Status != sim.StatusKnownIP {
			continue
		}
		v4, v6 := n.AddrTable().PeerIDs(int(idx), day)
		for _, id := range []int32{v4, v6} {
			if id >= 0 {
				counts[id]++
			}
		}
	}
	return counts
}

// studyNetwork builds the network the CLIs study at seed: the paper's
// 30.5K daily peers over 45 days, a tenth of that under -short.
func studyNetwork(t *testing.T, seed uint64) *sim.Network {
	t.Helper()
	peers := 30500
	if testing.Short() {
		peers = 3050
	}
	n, err := sim.New(sim.Config{Seed: seed, Days: 45, TargetDailyPeers: peers})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// studyDistribDay is the distribution day of core's distribution
// experiments on a 45-day study: five days before the end, less the
// 10-day horizon and one.
const studyDistribDay = 45 - 5 - 11

// distributionGrids are the sweep grids of core's bridge-distribution and
// distribution-enumeration experiments at seed.
func distributionGrids(seed uint64) []SweepConfig {
	return []SweepConfig{{
		Strategy:     censor.BridgeCombined,
		Distributors: DefaultDistributors(),
		Enumerators:  DefaultEnumerators(),
		Days:         []int{studyDistribDay},
		HorizonDays:  10,
		Users:        60,
		MaxResources: 160,
		SeedBase:     seed + 1200,
	}, {
		Strategy:     censor.BridgeRandom,
		Distributors: DefaultDistributors(),
		Enumerators:  []Enumerator{{Kind: Crawler, Budget: 25}, {Kind: Sybil, Budget: 60}},
		Days:         []int{studyDistribDay},
		HorizonDays:  10,
		Users:        60,
		MaxResources: 160,
		SeedBase:     seed + 1300,
	}}
}

// TestOwnersEpochShared: on every (cell, horizon day) of both
// distribution experiments' grids, at both bench seeds, the bystanders a
// cell counts through AddrIndex.Holders equal what the from-scratch
// owner table (referenceOwners) counts over the same blacklist, address by
// address;
// and on every study day, over a blacklist of every address, Holders
// names referenceOwners' owner for each held address and no other. The rules
// differ only where an address has several holders that day (the last
// one in ActivePeers order owns it), so the test fails unless it met
// such an address.
func TestOwnersEpochShared(t *testing.T) {
	cellShared, dayShared, cellDays := 0, 0, 0
	for _, seed := range []uint64{2018, 424242} {
		n := studyNetwork(t, seed)
		owners := make([][]int32, n.Days())
		counts := make([][]int, n.Days())
		for day := range owners {
			owners[day], counts[day] = referenceOwners(n, day), holderCounts(n, day)
		}
		for _, cfg := range distributionGrids(seed) {
			sw, err := NewSweep(n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range sw.Cells() {
				backend := sw.backends[c.Day]
				audit := func(day int, bl *censor.AddrSet, bystanders int) {
					want := 0
					for id, owner := range owners[day] {
						if !bl.Has(int32(id)) {
							continue
						}
						if owner >= 0 && !backend.InPool(int(owner)) {
							want++
						}
						if counts[day][id] > 1 {
							cellShared++
						}
					}
					if bystanders != want {
						t.Errorf("seed %d, cell (%s, %s), day %d: %d bystanders, reference %d",
							seed, c.Dist.Name(), c.Enum.Name(), day, bystanders, want)
					}
					cellDays++
				}
				if _, err := sw.runCell(c, audit); err != nil {
					t.Fatal(err)
				}
			}
		}

		ix := censor.IndexFor(n)
		every := ix.NewSet()
		for id := range ix.NumAddrs() {
			every.Add(int32(id))
		}
		for day := range owners {
			got := make([]int32, ix.NumAddrs())
			for i := range got {
				got[i] = -1
			}
			ix.Holders(every, day, func(id int32, peer int) {
				if got[id] >= 0 {
					t.Fatalf("seed %d, day %d: address %d reported twice", seed, day, id)
				}
				got[id] = int32(peer)
			})
			if !slices.Equal(got, owners[day]) {
				t.Fatalf("seed %d, day %d: Holders disagrees with the owner table", seed, day)
			}
			for _, c := range counts[day] {
				if c > 1 {
					dayShared++
				}
			}
		}
	}
	t.Logf("%d cell-days meet %d blacklisted addresses with several holders; every-address days meet %d",
		cellDays, cellShared, dayShared)
	if cellShared+dayShared == 0 {
		t.Fatal("no address had several holders: the last-wins rule went unchecked")
	}
}

// TestResourceIntroducersMatchRecord: the introducer indexes NewBackend
// holds for every resource are, in order, the peers a hash -> index map
// over the network resolves the record's introducers to, and discover
// blocks the same addresses through them as through that map.
func TestResourceIntroducersMatchRecord(t *testing.T) {
	for _, seed := range []uint64{2018, 424242} {
		n := studyNetwork(t, seed)
		byHash := make(map[netdb.Hash]int32, len(n.Peers))
		for _, p := range n.Peers {
			byHash[p.ID] = int32(p.Index)
		}
		ix := censor.IndexFor(n)
		for _, strat := range []censor.BridgeStrategy{censor.BridgeCombined, censor.BridgeFirewalled} {
			b, err := NewBackend(n, BackendConfig{Strategy: strat, Day: studyDistribDay, Seed: seed}, DefaultDistributors())
			if err != nil {
				t.Fatal(err)
			}
			var rs []Resource
			for _, d := range DefaultDistributors() {
				rs = append(rs, b.Partition(d.Name()).Resources()...)
			}
			if len(rs) != b.PoolSize() {
				t.Fatalf("partitions hold %d resources, pool %d", len(rs), b.PoolSize())
			}
			named := 0
			for _, r := range rs {
				var want []int32
				for _, a := range r.Record.Addresses {
					for _, in := range a.Introducers {
						idx, ok := byHash[in.Hash]
						if !ok {
							t.Fatalf("peer %d: introducer %x is no peer of the network", r.Peer, in.Hash[:4])
						}
						want = append(want, idx)
					}
				}
				if got := b.pool[r.Peer]; !slices.Equal(got, want) {
					t.Fatalf("seed %d, %v: the backend holds introducers %v for peer %d, its record names %v",
						seed, strat, got, r.Peer, want)
				}
				named += len(want)
			}
			if named == 0 {
				t.Fatalf("seed %d, %v: no resource names an introducer", seed, strat)
			}
			for _, day := range []int{studyDistribDay, studyDistribDay + 10} {
				cv := newCensorView(n, b, DefaultDistributors()[0], Enumerator{}, 0, nil)
				cv.discover(rs, day)
				ref := ix.NewSet()
				for _, r := range rs {
					v4, v6 := n.AddrTable().PeerIDs(r.Peer, day)
					ref.Add(v4)
					ref.Add(v6)
					for _, a := range r.Record.Addresses {
						for _, in := range a.Introducers {
							iv4, iv6 := n.AddrTable().PeerIDs(int(byHash[in.Hash]), day)
							ref.Add(iv4)
							ref.Add(iv6)
						}
					}
				}
				if cv.bl.Len() != ref.Len() || cv.bl.IntersectCount(ref) != ref.Len() {
					t.Fatalf("seed %d, %v, day %d: discover blocks %d addresses, the hash map %d (%d shared)",
						seed, strat, day, cv.bl.Len(), ref.Len(), cv.bl.IntersectCount(ref))
				}
			}
		}
	}
}
