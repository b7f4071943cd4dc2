package sim

import (
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

// referenceCoverageFactor is gamma_o(p) computed per peer, the form the
// observer's class table replaced: the fraction of peer p's exposure the
// observer converts into an observation each day.
func referenceCoverageFactor(o *Observer, p *Peer) float64 {
	return o.classCoverage(p.affinityClass())
}

// referenceObserveProbability is the per-peer probability that the
// observer sees peer p on any day p is online, the product the dense
// class and exposure columns replaced.
func referenceObserveProbability(o *Observer, p *Peer) float64 {
	return referenceCoverageFactor(o, p) * o.net.drawExposure[p.Index]
}

// TestCoverageFactorBounds: gamma is a probability for every peer and
// observer configuration.
func TestCoverageFactorBounds(t *testing.T) {
	n := testNetwork(t, 10)
	f := func(kbps uint16, ff bool, peerSel uint16) bool {
		o := n.NewObserver(ObserverConfig{SharedKBps: int(kbps), Floodfill: ff, Seed: 1})
		p := &n.Peers[int(peerSel)%len(n.Peers)]
		gamma := referenceCoverageFactor(o, p)
		prob := referenceObserveProbability(o, p)
		return gamma >= 0 && gamma <= 1 && prob >= 0 && prob <= 1 && prob <= gamma+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCoverageMonotoneInBandwidth: more shared bandwidth never reduces
// coverage of any peer (the tunnel channel only grows).
func TestCoverageMonotoneInBandwidth(t *testing.T) {
	n := testNetwork(t, 10)
	low := n.NewObserver(ObserverConfig{SharedKBps: 128, Seed: 1})
	mid := n.NewObserver(ObserverConfig{SharedKBps: 1024, Seed: 1})
	high := n.NewObserver(ObserverConfig{SharedKBps: 8192, Seed: 1})
	for i := 0; i < 500; i++ {
		p := &n.Peers[i*7%len(n.Peers)]
		gl, gm, gh := referenceCoverageFactor(low, p), referenceCoverageFactor(mid, p), referenceCoverageFactor(high, p)
		if !(gl <= gm+1e-12 && gm <= gh+1e-12) {
			t.Fatalf("coverage not monotone in bandwidth: %v %v %v", gl, gm, gh)
		}
	}
}

// TestFloodfillStoreChannelHelpsEveryPeer: at equal bandwidth, the store
// channel means a floodfill observer covers every peer at least as well
// per-channel-math as a non-floodfill one at low bandwidth.
func TestFloodfillStoreChannelHelpsAtLowBandwidth(t *testing.T) {
	n := testNetwork(t, 10)
	ff := n.NewObserver(ObserverConfig{SharedKBps: 128, Floodfill: true, Seed: 1})
	nf := n.NewObserver(ObserverConfig{SharedKBps: 128, Floodfill: false, Seed: 1})
	for i := 0; i < 500; i++ {
		p := &n.Peers[i*11%len(n.Peers)]
		if referenceCoverageFactor(ff, p) < referenceCoverageFactor(nf, p) {
			t.Fatalf("peer %d: low-bandwidth floodfill coverage below non-floodfill", i)
		}
	}
}

func TestObserverBandwidthClamping(t *testing.T) {
	n := testNetwork(t, 10)
	o := n.NewObserver(ObserverConfig{SharedKBps: 1 << 20})
	if o.Cfg.SharedKBps != MaxSharedKBps {
		t.Fatalf("bandwidth not clamped: %d", o.Cfg.SharedKBps)
	}
	o = n.NewObserver(ObserverConfig{SharedKBps: 0})
	if o.Cfg.SharedKBps != 128 {
		t.Fatalf("zero bandwidth not defaulted: %d", o.Cfg.SharedKBps)
	}
}

// TestObservationSubsetOfActives: observers only see peers that are
// actually online.
func TestObservationSubsetOfActives(t *testing.T) {
	n := testNetwork(t, 10)
	o := n.NewObserver(ObserverConfig{SharedKBps: 8192, Floodfill: true, Seed: 5})
	day := 5
	active := make(map[int]bool)
	for _, idx := range n.ActivePeers(day) {
		active[int(idx)] = true
	}
	for _, idx := range o.ObserveDay(day) {
		if !active[idx] {
			t.Fatal("observed an offline peer")
		}
	}
	if got := o.ObserveDay(-1); got != nil {
		t.Fatal("out-of-range day returned observations")
	}
}

// TestObserveDayDeterministic: an observer memoizes nothing, so its
// draws are equal, not shared — across repeated and concurrent calls
// (run under -race, the calls share no state to race on) and against a
// fresh observer with the same seed.
func TestObserveDayDeterministic(t *testing.T) {
	n := testNetwork(t, 10)
	o := n.NewObserver(ObserverConfig{SharedKBps: 8192, Floodfill: true, Seed: 9})
	want := make([][]int, n.Days())
	for d := range want {
		want[d] = o.ObserveDay(d)
	}
	if len(want[4]) == 0 {
		t.Fatal("observer saw nothing")
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range want {
				if got := o.ObserveDay(d); !reflect.DeepEqual(got, want[d]) {
					t.Errorf("day %d: a concurrent ObserveDay drew differently", d)
				}
			}
		}()
	}
	wg.Wait()
	fresh := n.NewObserver(ObserverConfig{SharedKBps: 8192, Floodfill: true, Seed: 9})
	for d := range want {
		if !reflect.DeepEqual(fresh.ObserveDay(d), want[d]) {
			t.Fatalf("day %d: a fresh observer with the same seed drew differently", d)
		}
	}
}

// TestAddrScheduleMatchesAddrOnDay: the schedule read segment by segment
// reproduces AddrOnDay for every peer and day, and segmentOn names the
// segment it was read from.
func TestAddrScheduleMatchesAddrOnDay(t *testing.T) {
	n := testNetwork(t, 10)
	for idx, p := range n.Peers {
		sched := n.schedule(idx)
		if p.Status != StatusKnownIP {
			if len(sched) != 0 {
				t.Fatalf("peer %d: unknown-IP peer has an address schedule of %d", p.Index, len(sched))
			}
			if seg := n.segmentOn(idx, 0); seg != -1 {
				t.Fatalf("peer %d: unknown-IP peer publishes segment %d", p.Index, seg)
			}
			continue
		}
		if len(sched) == 0 {
			t.Fatalf("peer %d: known-IP peer has no address schedule", p.Index)
		}
		for day := 0; day < n.Days(); day++ {
			v4, v6 := n.AddrOnDay(idx, day)
			want4, want6 := sched[0].addrs()
			wantSeg := 0
			for i := 1; i < len(sched); i++ {
				if int(sched[i].fromDay) > day {
					break
				}
				want4, want6 = sched[i].addrs()
				wantSeg = i
			}
			if want4 != v4 || want6 != v6 {
				t.Fatalf("peer %d day %d: schedule (%v, %v) != AddrOnDay (%v, %v)",
					p.Index, day, want4, want6, v4, v6)
			}
			if seg := n.segmentOn(idx, day); seg != wantSeg {
				t.Fatalf("peer %d day %d: segmentOn = %d, the schedule says %d", p.Index, day, seg, wantSeg)
			}
		}
	}
}
