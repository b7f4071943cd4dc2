package distrib

import (
	"fmt"
	"sort"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/netdb"
)

// FuzzHashringAssignment fuzzes the stable-assignment invariant of the
// backend hashring (see the package doc): a resource's frontend
// assignment depends only on (resource key, distributor name set), so
//
//   - reordering the distributor list never changes an assignment,
//   - removing one distributor only reassigns that distributor's own
//     resources — every survivor keeps its owner,
//   - pool churn (resources joining or leaving, including through the
//     MaxResources selection cap) never reshuffles the surviving
//     assignments: the cap displaces at most the boundary resource.
//
// The fuzzer drives all three at once from (seed, pool size, name-set
// size, drop choices, cap).
func FuzzHashringAssignment(f *testing.F) {
	f.Add(uint64(1), uint16(40), uint8(4), uint8(1), uint16(10), uint16(7))
	f.Add(uint64(2018), uint16(300), uint8(1), uint8(0), uint16(0), uint16(0))
	f.Add(uint64(7), uint16(2), uint8(7), uint8(6), uint16(1), uint16(1))
	f.Add(uint64(0), uint16(0), uint8(0), uint8(0), uint16(0), uint16(0))
	f.Fuzz(func(t *testing.T, seed uint64, nRes uint16, nNames, dropName uint8, capN, dropRes uint16) {
		numRes := 1 + int(nRes)%400
		numNames := 1 + int(nNames)%8

		// A seeded name set and resource pool: keys derive from the
		// fuzz seed exactly like real keys derive from identity hashes.
		names := make([]string, numNames)
		for i := range names {
			names[i] = fmt.Sprintf("dist-%x", mix(seed, 0x6E616D65, uint64(i))&0xFFFF) // "name"
		}
		pool := make([]Resource, numRes)
		for i := range pool {
			pool[i] = Resource{Peer: i, Key: mix(seed, uint64(i))}
		}

		ring := buildRing(names)
		base := make(map[int]string, numRes)
		for _, r := range pool {
			base[r.Peer] = ring.owner(r.Key)
		}

		// 1. Reordering: a rotated name list builds an identical
		// assignment.
		rot := int(seed % uint64(numNames))
		rotated := append(append([]string(nil), names[rot:]...), names[:rot]...)
		rring := buildRing(rotated)
		for _, r := range pool {
			if got := rring.owner(r.Key); got != base[r.Peer] {
				t.Fatalf("resource %d moved %s -> %s under name reordering", r.Peer, base[r.Peer], got)
			}
		}

		// 2. Removing one distributor reassigns only its own arc.
		if numNames > 1 {
			di := int(dropName) % numNames
			survivors := append(append([]string(nil), names[:di]...), names[di+1:]...)
			sring := buildRing(survivors)
			for _, r := range pool {
				got := sring.owner(r.Key)
				if base[r.Peer] != names[di] && got != base[r.Peer] {
					t.Fatalf("resource %d moved %s -> %s when unrelated %s left",
						r.Peer, base[r.Peer], got, names[di])
				}
				if base[r.Peer] == names[di] && got == names[di] {
					t.Fatalf("resource %d still assigned to removed distributor", r.Peer)
				}
			}
		}

		// 3. Pool churn through the MaxResources cap: dropping one pool
		// resource displaces at most the sample's boundary member, and
		// every surviving sample member keeps its ring owner.
		max := 1 + int(capN)%numRes
		sample := capResources(append([]Resource(nil), pool...), max)
		if len(sample) != min(max, numRes) {
			t.Fatalf("cap kept %d of %d, want %d", len(sample), numRes, min(max, numRes))
		}
		inSample := make(map[int]bool, len(sample))
		for _, r := range sample {
			inSample[r.Peer] = true
		}
		drop := int(dropRes) % numRes
		churned := make([]Resource, 0, numRes-1)
		for _, r := range pool {
			if r.Peer != drop {
				churned = append(churned, r)
			}
		}
		if len(churned) == 0 {
			return
		}
		fresh := 0
		for _, r := range capResources(churned, max) {
			if !inSample[r.Peer] {
				fresh++
			}
			if got := ring.owner(r.Key); got != base[r.Peer] {
				t.Fatalf("sample resource %d moved %s -> %s under pool churn", r.Peer, base[r.Peer], got)
			}
		}
		if fresh > 1 {
			t.Fatalf("dropping one resource replaced %d sample members, want at most 1", fresh)
		}

		// 4. Retirement (the service prober's move): an arbitrary subset
		// of the pool dies and is filtered out of responses, but the ring
		// and the partition are never rebuilt. The filtered arc walk must
		// be an order-preserving subsequence of the original with exactly
		// the retired members removed, and every survivor keeps both its
		// owner and its partition slot.
		ordered := append([]Resource(nil), pool...)
		sort.Slice(ordered, func(i, j int) bool { return ordered[i].Key < ordered[j].Key })
		for i := range ordered {
			ordered[i].Record = &netdb.RouterInfo{Identity: netdb.Hash{byte(i), byte(i >> 8)}}
		}
		part := newPartition(nil, "fuzz", ordered)
		retired := make(map[int]bool)
		for _, r := range pool {
			if mix(seed, 0x726574, uint64(r.Peer))%3 == 0 { // "ret"
				retired[r.Peer] = true
			}
		}
		probeKey := mix(seed, 0x70726F6265) // "probe"
		n := 1 + int(capN)%8
		arc := part.GetMany(probeKey, n)
		served := make([]Resource, 0, len(arc))
		for _, r := range arc {
			if !retired[r.Peer] {
				served = append(served, r)
			}
		}
		ai := 0
		for _, r := range served {
			if retired[r.Peer] {
				t.Fatalf("retired resource %d served", r.Peer)
			}
			for ai < len(arc) && arc[ai].Peer != r.Peer {
				ai++
			}
			if ai == len(arc) {
				t.Fatal("filtered handout is not a subsequence of the arc")
			}
			ai++
			if got := ring.owner(r.Key); got != base[r.Peer] {
				t.Fatalf("survivor %d moved %s -> %s under retirement", r.Peer, base[r.Peer], got)
			}
			if got := part.SlotOf(r.Key); part.res[got].Peer != r.Peer {
				t.Fatalf("survivor %d lost its partition slot under retirement", r.Peer)
			}
		}
		deadInArc := 0
		for _, r := range arc {
			if retired[r.Peer] {
				deadInArc++
			}
		}
		if len(served)+deadInArc != len(arc) {
			t.Fatalf("filtered arc has %d members, want %d", len(served), len(arc)-deadInArc)
		}
	})
}
