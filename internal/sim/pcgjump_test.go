package sim

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// pcgStateOf reads a generator's state through its binary encoding:
// "pcg:" then hi and lo, big-endian.
func pcgStateOf(t testing.TB, p *rand.PCG) pcgState {
	t.Helper()
	b, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 20 || string(b[:4]) != "pcg:" {
		t.Fatalf("unexpected PCG encoding %x", b)
	}
	return pcgState{binary.BigEndian.Uint64(b[4:]), binary.BigEndian.Uint64(b[12:])}
}

// TestPCGJumpMatchesStepping: jumping a state by g is g calls to Uint64,
// for every g from 0 to past three table lengths (chaining whole strides
// as DrawDayAt does), from several seeds — and the output of the state
// jumped to is the last call's value.
func TestPCGJumpMatchesStepping(t *testing.T) {
	for _, seed := range []pcgState{{0, 0}, {1, 2}, {0x9E3779B97F4A7C15, 1}, {^uint64(0), ^uint64(0)}} {
		pcg := rand.NewPCG(seed.hi, seed.lo)
		var last uint64
		for g := uint(0); g <= 200; g++ {
			if g > 0 {
				last = pcg.Uint64()
			}
			want := pcgStateOf(t, pcg)
			got, rest := seed, g
			for ; rest > maxPCGJump; rest -= maxPCGJump {
				got = got.jump(maxPCGJump)
			}
			got = got.jump(rest)
			if got != want {
				t.Fatalf("seed %x: jump %d lands at %x, stepping at %x", seed, g, got, want)
			}
			if g > 0 && got.dxsm() != last {
				t.Fatalf("seed %x step %d: dxsm %#x, Uint64 %#x", seed, g, got.dxsm(), last)
			}
		}
	}
}

// drawDayAtSubsets returns the subsets of a day's positions that
// TestDrawDayAtMatchesDrawDay draws: empty, all, the first only, the last
// only, a random half, one in every 100 (gaps past the jump table), and
// the known-IP peers (a censor router's subset).
func drawDayAtSubsets(net *Network, day int, rng *rand.Rand) map[string][]int32 {
	active := net.ActivePeers(day)
	all := make([]int32, len(active))
	for j := range all {
		all[j] = int32(j)
	}
	subsets := map[string][]int32{"empty": nil, "all": all}
	if len(active) == 0 {
		return subsets
	}
	subsets["first"] = all[:1]
	subsets["last"] = all[len(all)-1:]
	var half, sparse, known []int32
	for j, idx := range active {
		if rng.IntN(2) == 0 {
			half = append(half, int32(j))
		}
		if j%100 == 37 {
			sparse = append(sparse, int32(j))
		}
		if net.Peers[idx].Status == StatusKnownIP {
			known = append(known, int32(j))
		}
	}
	subsets["half"], subsets["sparse"], subsets["known-ip"] = half, sparse, known
	return subsets
}

// drawDayOn is DrawDay filtered to the subset at: the indexes k into at
// whose position DrawDay keeps.
func drawDayOn(o *Observer, day int, at []int32) []int32 {
	var want []int32
	kept := o.DrawDay(day, nil)
	for k, j := range at {
		if _, ok := slices.BinarySearch(kept, j); ok {
			want = append(want, int32(k))
		}
	}
	return want
}

// TestDrawDayAtMatchesDrawDay holds the subset draw to the full one on
// the test network and at both bench seeds, for several observers on
// every day: over every subset the kept indexes are DrawDay ∩ at, and a
// non-empty out keeps its prefix.
func TestDrawDayAtMatchesDrawDay(t *testing.T) {
	nets := map[string]*Network{"test": testNetwork(t, 10)}
	for _, seed := range []uint64{2018, 424242} {
		n, err := New(Config{Seed: seed, Days: 40, TargetDailyPeers: 1200})
		if err != nil {
			t.Fatal(err)
		}
		nets[fmt.Sprint(seed)] = n
	}
	prefix := []int32{-7, 1 << 30}
	for name, n := range nets {
		observers := []*Observer{
			n.NewObserver(ObserverConfig{Floodfill: true, SharedKBps: MaxSharedKBps, Seed: 700}),
			n.NewObserver(ObserverConfig{Floodfill: false, SharedKBps: MaxSharedKBps, Seed: 701}),
			n.NewObserver(ObserverConfig{Floodfill: false, SharedKBps: 512, Seed: 7}),
		}
		rng := rand.New(rand.NewPCG(1, 2))
		for _, o := range observers {
			for day := 0; day < n.Days(); day++ {
				for subset, at := range drawDayAtSubsets(n, day, rng) {
					want := drawDayOn(o, day, at)
					got := o.DrawDayAt(day, at, nil)
					if !slices.Equal(got, want) {
						t.Fatalf("%s seed %d day %d %s: DrawDayAt keeps %d of %d, DrawDay %d", name, o.Cfg.Seed, day, subset, len(got), len(at), len(want))
					}
					got = o.DrawDayAt(day, at, slices.Clone(prefix))
					if !slices.Equal(got[:len(prefix)], prefix) || !slices.Equal(got[len(prefix):], want) {
						t.Fatalf("%s seed %d day %d %s: with a prefix, DrawDayAt returned %v", name, o.Cfg.Seed, day, subset, got)
					}
				}
			}
		}
	}
}

// FuzzDrawDayAt: for any observer seed, day and subset, DrawDayAt keeps
// exactly the indexes whose position DrawDay keeps. Bit j of mask puts
// position j of the day in the subset, so zero bytes make gaps.
func FuzzDrawDayAt(f *testing.F) {
	n := testNetwork(f, 10)
	full := make([]byte, (len(n.ActivePeers(0))+7)/8)
	for i := range full {
		full[i] = 0xff
	}
	f.Add(uint64(700), uint8(0), []byte{})
	f.Add(uint64(701), uint8(3), full)
	f.Add(uint64(7), uint8(9), []byte{0x01})
	f.Add(uint64(8), uint8(5), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, seed uint64, day uint8, mask []byte) {
		o := n.NewObserver(ObserverConfig{Floodfill: seed&1 == 0, SharedKBps: MaxSharedKBps, Seed: seed})
		d := int(day) % (n.Days() + 2) // two days past the study draw nothing
		var at []int32
		for j := range n.ActivePeers(d) {
			if j/8 < len(mask) && mask[j/8]>>(j%8)&1 == 1 {
				at = append(at, int32(j))
			}
		}
		if got, want := o.DrawDayAt(d, at, nil), drawDayOn(o, d, at); !slices.Equal(got, want) {
			t.Fatalf("day %d, %d positions: DrawDayAt keeps %v, DrawDay %v", d, len(at), got, want)
		}
	})
}
