package measure

import (
	"math/bits"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"github.com/i2pstudy/i2pstudy/internal/geo"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// TestUnresolvedCountsDistinctAddresses is the regression test for the
// Unresolved accounting bug: one peer publishing one segment of two
// unresolvable addresses for ten days must count as TWO unresolved
// addresses, not twenty. The pre-fix code incremented per (record,
// address, day) occurrence, so a single long-lived bad address inflated
// the summary once per day. An address is counted at the fold's first
// sight of it, so the days may fold in any order.
func TestUnresolvedCountsDistinctAddresses(t *testing.T) {
	n, err := sim.New(sim.Config{Seed: 3, Days: 1, TargetDailyPeers: 50})
	if err != nil {
		t.Fatal(err)
	}
	addrs := n.AddrTable()
	// The simulator never publishes an unresolvable address, so the test
	// resolves two segments carrying an IPv6, each its own peer's,
	// through an empty geo database, which resolves nothing, and feeds
	// the fold's per-segment and per-address steps directly.
	type segment struct {
		peer int32
		pos  int
	}
	var bogus []segment
	for i := range n.Peers {
		lo, hi := addrs.PeerSegments(i)
		for pos := lo; pos < hi && len(bogus) < 2; pos++ {
			if _, v6 := addrs.SegmentIDs(pos); v6 >= 0 {
				bogus = append(bogus, segment{int32(i), pos})
				break
			}
		}
	}
	if len(bogus) < 2 {
		t.Fatalf("%d peers publish an IPv6 address, want 2", len(bogus))
	}
	var f *folder
	newDataset := func() *Dataset {
		ds := NewDataset(0, 10)
		f = newFolder(ds, n)
		return ds
	}
	fold := func(ds *Dataset, day int, b segment) {
		ds.track(b.peer, day)
		ds.markSegment(&geo.DB{}, b.pos)
		v4, v6 := addrs.SegmentIDs(b.pos)
		f.countAddr(ds.day(day), v4)
		f.countAddr(ds.day(day), v6)
	}

	ds := newDataset()
	for day := 9; day >= 0; day-- {
		fold(ds, day, bogus[0])
	}
	if ds.Unresolved != 2 {
		t.Fatalf("Unresolved = %d, want 2 (two distinct unresolvable addresses over 10 days)", ds.Unresolved)
	}
	sets, idx := peerSets{ds: ds}, int(bogus[0].peer)
	if sets.ipCount(idx) != 2 || len(sets.asnsOf(idx)) != 0 || len(sets.countriesOf(idx)) != 0 ||
		ds.daysObserved(idx) != 10 || ds.TotalPeers() != 1 {
		t.Fatalf("track mis-accumulated: %+v (%d peers)", ds.tracks[idx], ds.TotalPeers())
	}
	// Unresolvable addresses still count toward the per-day IP totals
	// (they were observed, just not located), exactly as before the fix.
	for _, d := range ds.Days {
		if d.IPAll != 2 || d.IPv4 != 1 || d.IPv6 != 1 {
			t.Fatalf("day %d: IPAll=%d IPv4=%d IPv6=%d, want 2/1/1", d.Day, d.IPAll, d.IPv4, d.IPv6)
		}
	}
	// A second peer's segment of two more bad addresses adds exactly two.
	ds2 := newDataset()
	for day := 0; day < 10; day++ {
		fold(ds2, day, bogus[0])
		fold(ds2, day, bogus[1])
	}
	if ds2.Unresolved != 4 {
		t.Fatalf("Unresolved = %d, want 4", ds2.Unresolved)
	}
}

// TestTracksAlwaysObserved proves the invariant the analyses lean on
// when Dataset.eachTrack skips the unobserved slots: in a campaign-built
// dataset every observed slot has a coherent, observed [FirstDay,
// LastDay] window, every other slot is the zero track with no seen day
// and no marked segment, and TotalPeers counts the observed slots.
func TestTracksAlwaysObserved(t *testing.T) {
	n, ds := dataset(t)
	if len(ds.tracks) != len(n.Peers) {
		t.Fatalf("%d tracks for %d peers", len(ds.tracks), len(n.Peers))
	}
	observed := 0
	for i := range ds.tracks {
		tr := &ds.tracks[i]
		if !tr.observed() {
			if *tr != (PeerTrack{}) || ds.daysObserved(i) != 0 {
				t.Fatalf("peer %d: never observed but its track is %+v", i, *tr)
			}
			if (&peerSets{ds: ds}).ipCount(i) != 0 {
				t.Fatalf("peer %d: never observed but a segment of it is marked", i)
			}
			continue
		}
		observed++
		if int(tr.FirstDay) < ds.StartDay || int(tr.LastDay) >= ds.EndDay || tr.FirstDay > tr.LastDay {
			t.Fatalf("peer %d: incoherent window [%d, %d]", i, tr.FirstDay, tr.LastDay)
		}
		if ds.daysObserved(i) == 0 {
			t.Fatalf("peer %d: track opened but never observed", i)
		}
		seen := ds.seenOf(i)
		for _, day := range []int32{tr.FirstDay, tr.LastDay} {
			idx := int(day) - ds.StartDay
			if seen[idx>>6]&(1<<(idx&63)) == 0 {
				t.Fatalf("peer %d: day %d bounds the window but is not marked seen", i, day)
			}
		}
	}
	if observed == 0 || observed == len(ds.tracks) {
		t.Fatalf("%d of %d peers observed: want some but not all", observed, len(ds.tracks))
	}
	if ds.TotalPeers() != observed {
		t.Fatalf("TotalPeers = %d, %d slots observed", ds.TotalPeers(), observed)
	}
}

// TestPeerTrackCompactSets checks the per-peer set derivation the compact
// representation leans on: over one peer's marked segments, peerSets
// counts each distinct address once however many segments repeat it,
// lists ASNs and countries distinct, skips unresolved
// addresses and unmarked segments, and reuses its scratch across peers.
func TestPeerTrackCompactSets(t *testing.T) {
	n, err := sim.New(sim.Config{Seed: 7, Days: 60, TargetDailyPeers: 400})
	if err != nil {
		t.Fatal(err)
	}
	ds := NewDataset(0, 60)
	newFolder(ds, n)
	addrs := ds.addrs
	// Mark every other segment of every peer, and build what the sets
	// should hold by insertSorted over the marked segments' IDs.
	ref := newReferenceSets(len(n.Peers))
	for i := range n.Peers {
		lo, hi := addrs.PeerSegments(i)
		for pos := lo; pos < hi; pos += 2 {
			ds.markSegment(n.GeoDB(), pos)
			v4, v6 := addrs.SegmentIDs(pos)
			for _, id := range [2]int32{v4, v6} {
				if id < 0 {
					continue
				}
				ref.ips[i], _ = insertSorted(ref.ips[i], uint32(id))
				if g := ds.geo[id]; g.resolved {
					ref.asns[i], _ = insertSorted(ref.asns[i], g.asn)
					ref.countries[i], _ = insertSorted(ref.countries[i], g.country)
				}
			}
		}
	}
	sets := peerSets{ds: ds}
	multi := 0
	for i := range n.Peers {
		if got := sets.ipCount(i); got != len(ref.ips[i]) {
			t.Fatalf("peer %d: %d addresses, want %d", i, got, len(ref.ips[i]))
		}
		if got := sortedCopy(sets.asnsOf(i)); !slices.Equal(got, ref.asns[i]) {
			t.Fatalf("peer %d: ASNs %v, want %v", i, got, ref.asns[i])
		}
		if got := sortedCopy(sets.countriesOf(i)); !slices.Equal(got, ref.countries[i]) {
			t.Fatalf("peer %d: countries %v, want %v", i, got, ref.countries[i])
		}
		if len(ref.ips[i]) > 2 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no peer has more than one marked segment: the test exercises no union")
	}
}

// TestPeerTrackLayout pins what a track costs per peer of the network:
// at most 24 bytes, and no slice, map or pointer for the collector to
// walk. The days and addresses a peer was seen with live in the
// Dataset's bitsets, found by peer index.
func TestPeerTrackLayout(t *testing.T) {
	if size := unsafe.Sizeof(PeerTrack{}); size > 24 {
		t.Fatalf("PeerTrack is %d bytes, want at most 24", size)
	}
	typ := reflect.TypeFor[PeerTrack]()
	for i := range typ.NumField() {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Slice, reflect.Map, reflect.Pointer, reflect.String, reflect.Interface:
			t.Fatalf("PeerTrack.%s is a %s", f.Name, f.Type)
		}
	}
}

// referenceLongestRun is longestRun as it stood before it stepped from
// run to run: one test per bit of every seen word.
func referenceLongestRun(ds *Dataset, idx int) int {
	best, cur := 0, 0
	for _, w := range ds.seenOf(idx) {
		for b := 0; b < 64; b++ {
			if w&(1<<b) != 0 {
				cur++
				if cur > best {
					best = cur
				}
			} else {
				cur = 0
			}
		}
	}
	return best
}

// TestLongestRunMatchesReference holds longestRun to the bit loop over
// random words, all-ones words, runs that cross word boundaries (a
// word's top run into the next word's bottom run, and across whole
// all-ones words), single bits at either end of a word, and a campaign
// whose last word is padded with zeros past EndDay.
func TestLongestRunMatchesReference(t *testing.T) {
	for _, days := range []int{1, 63, 64, 65, 90, 200} {
		words := (days + 63) / 64
		pad := ^uint64(0) >> (64*words - days) // the last word's days
		patterns := [][]uint64{
			make([]uint64, words), // never seen
		}
		ones := make([]uint64, words)
		for i := range ones {
			ones[i] = ^uint64(0)
		}
		patterns = append(patterns, ones)
		if words > 1 {
			// A top run carried into the next word's bottom run, and one
			// carried through an all-ones word.
			cross := make([]uint64, words)
			cross[0] = 0xF << 60
			cross[1] = 0x7
			patterns = append(patterns, cross)
			through := make([]uint64, words)
			through[0] = 1 << 63
			for i := 1; i < words-1; i++ {
				through[i] = ^uint64(0)
			}
			through[words-1] = 1
			patterns = append(patterns, through)
			edges := make([]uint64, words)
			for i := range edges {
				edges[i] = 1 | 1<<63
			}
			patterns = append(patterns, edges)
		}
		rng := rand.New(rand.NewPCG(uint64(days), 7))
		for range 200 {
			w := make([]uint64, words)
			for i := range w {
				switch rng.IntN(4) {
				case 0:
					w[i] = rng.Uint64()
				case 1:
					w[i] = rng.Uint64() | rng.Uint64() // long runs
				case 2:
					w[i] = rng.Uint64() & rng.Uint64() // short runs
				default:
					w[i] = ^uint64(0) << rng.IntN(64) >> rng.IntN(64) // one run
				}
			}
			patterns = append(patterns, w)
		}
		ds := NewDataset(0, days)
		ds.sizeTracks(len(patterns))
		for idx, p := range patterns {
			p[len(p)-1] &= pad // padding past EndDay stays zero
			copy(ds.seenOf(idx), p)
		}
		for idx, p := range patterns {
			if got, want := ds.longestRun(idx), referenceLongestRun(ds, idx); got != want {
				t.Fatalf("%d days, words %x: longestRun %d, reference %d", days, p, got, want)
			}
		}
	}
}

// daysObserved returns on how many distinct days peer idx was seen.
func (ds *Dataset) daysObserved(idx int) int {
	n := 0
	for _, w := range ds.seenOf(idx) {
		n += bits.OnesCount64(w)
	}
	return n
}
