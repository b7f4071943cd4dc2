package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// referenceFleetDays is fleetDays read off ObserveDay: every observer's
// list of peer indexes, unioned in fleet order through a map per day.
func referenceFleetDays(observers []*sim.Observer, days []int) (seen, union [][]int) {
	seen, union = make([][]int, len(observers)), make([][]int, len(observers))
	for k := range observers {
		seen[k], union[k] = make([]int, len(days)), make([]int, len(days))
	}
	for d, day := range days {
		peers := map[int]bool{}
		for k, o := range observers {
			ids := o.ObserveDay(day)
			for _, idx := range ids {
				peers[idx] = true
			}
			seen[k][d], union[k][d] = len(ids), len(peers)
		}
	}
	return seen, union
}

// TestFleetDaysMatchesReference holds fleetDays to referenceFleetDays,
// seen and union both, over the population experiments' fleets on the
// test network and at the benchmark's seeds, at one worker and at four.
func TestFleetDaysMatchesReference(t *testing.T) {
	nets := map[string]*sim.Network{"test": study(t).Net}
	peers := 6100
	if testing.Short() {
		peers = 1000
	}
	for _, seed := range []uint64{2018, 424242} {
		n, err := sim.New(sim.Config{Seed: seed, Days: 45, TargetDailyPeers: peers})
		if err != nil {
			t.Fatal(err)
		}
		nets[fmt.Sprint("seed ", seed)] = n
	}
	for name, n := range nets {
		observer := func(ff bool, kbps int, seed uint64) *sim.Observer {
			return n.NewObserver(sim.ObserverConfig{Floodfill: ff, SharedKBps: kbps, Seed: seed})
		}
		day := n.Days() - 5
		figure4 := make([]*sim.Observer, 40)
		for i := range figure4 {
			figure4[i] = observer(i%2 == 0, sim.MaxSharedKBps, uint64(400+i))
		}
		mixed := make([]*sim.Observer, 0, 6)
		for i := 0; i < 3; i++ {
			mixed = append(mixed, observer(true, sim.MaxSharedKBps, uint64(1000+i)))
		}
		for i := 0; i < 3; i++ {
			mixed = append(mixed, observer(false, sim.MaxSharedKBps, uint64(1100+i)))
		}
		allFF, allNF := make([]*sim.Observer, 6), make([]*sim.Observer, 6)
		for i := range allFF {
			allFF[i] = observer(true, sim.MaxSharedKBps, uint64(800+i))
			allNF[i] = observer(false, sim.MaxSharedKBps, uint64(1000+i))
		}
		fleets := []struct {
			name      string
			observers []*sim.Observer
			days      []int
		}{
			{"figure-02", []*sim.Observer{observer(true, sim.MaxSharedKBps, 21)}, []int{2, 3, 4, 5, 6}},
			{"figure-03", []*sim.Observer{observer(true, 1024, 33), observer(false, 1024, 53)}, []int{day - 2, day - 1, day}},
			{"figure-04", figure4, []int{6, 7, 8, 9, 10}},
			{"mix 6 ff", allFF, []int{day}},
			{"mix 6 nf", allNF, []int{day}},
			{"mix 3+3", mixed, []int{day}},
			{"no observers", nil, []int{day}},
			{"outside the study", mixed[:2], []int{-1, day, n.Days()}},
		}
		for _, f := range fleets {
			wantSeen, wantUnion := referenceFleetDays(f.observers, f.days)
			for _, workers := range []int{1, 4} {
				s := &Study{Opts: Options{Workers: workers}, Net: n}
				seen, union, err := fleetDays(context.Background(), s, f.observers, f.days)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(seen, wantSeen) || !reflect.DeepEqual(union, wantUnion) {
					t.Errorf("%s, %s, workers=%d: seen %v union %v, want %v and %v",
						name, f.name, workers, seen, union, wantSeen, wantUnion)
				}
			}
		}
		// A day outside the study draws nothing, so it counts no peer.
		seen, union, err := fleetDays(context.Background(), &Study{Net: n}, mixed, []int{-1, n.Days()})
		if err != nil {
			t.Fatal(err)
		}
		for k := range mixed {
			if seen[k][0]+seen[k][1]+union[k][0]+union[k][1] != 0 {
				t.Errorf("%s: days outside the study counted peers: seen %v union %v", name, seen, union)
			}
		}
	}
}
