// Blocking emulation: the paper's second research question — "How
// resilient is I2P against censorship?" — as a runnable scenario. A censor
// operates monitoring routers, compiles an address blacklist, and
// null-routes the victim's traffic; we measure the blocking rate against a
// stable client (Figure 13) and then what that rate does to eepsite
// browsing (Figure 14).
//
// Run with:
//
//	go run ./examples/blocking-emulation
package main

import (
	"fmt"
	"log"
	"math/rand/v2"

	"github.com/i2pstudy/i2pstudy/internal/censor"
	"github.com/i2pstudy/i2pstudy/internal/eepsite"
	"github.com/i2pstudy/i2pstudy/internal/netdb"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

func main() {
	log.SetFlags(0)

	network, err := sim.New(sim.Config{Seed: 3, Days: 45, TargetDailyPeers: 3050})
	if err != nil {
		log.Fatal(err)
	}
	day := 40
	fleets, windows := []int{2, 6, 10, 20}, []int{1, 5, 30}
	// One censor fleet of 20 monitoring routers serves every (fleet,
	// window) cell; the sweep's victim is the client being cut off.
	sw, err := censor.NewSweep(network, censor.SweepConfig{
		Fleets: fleets, Windows: windows, Days: []int{day}, SeedBase: 99,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== Part 1: blocking rates (Figure 13) ==")
	for _, window := range windows {
		fmt.Printf("blacklist window %2d days: ", window)
		for _, k := range fleets {
			rate := sw.BlockingRate(censor.Cell{Fleet: k, Window: window, Day: day})
			fmt.Printf(" %2d routers=%5.1f%% ", k, 100*rate)
		}
		fmt.Println()
	}

	fmt.Println("\n== Part 2: usability under blocking (Figure 14) ==")
	// The victim's tunnel candidates come from its own netDb.
	victim := censor.NewVictim(network, 1234)
	pcg := rand.NewPCG(5, 5)
	var candidates []*netdb.RouterInfo
	for _, idx := range victim.KnownPeers(day) {
		candidates = append(candidates, network.RouterInfo(day, network.SightingFor(idx, day, pcg)))
	}
	site := eepsite.NewSite(netdb.HashFromUint64(808))

	// Tie the two parts together: block by a real censor blacklist (the
	// full fleet, 5-day window) rather than a synthetic rate.
	bl := sw.Blacklist(censor.Cell{Fleet: 20, Window: 5, Day: day})
	ix := censor.IndexFor(network)
	byHash := make(map[netdb.Hash]int)
	for _, idx := range victim.KnownPeers(day) {
		byHash[network.Peers[idx].ID] = idx
	}
	blocked := func(h netdb.Hash) bool {
		idx, ok := byHash[h]
		return ok && ix.PeerBlocked(bl, idx, day)
	}

	client := eepsite.NewClient(candidates, nil)
	st, err := client.Crawl(site, 50, rand.New(rand.NewPCG(6, 6)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unblocked:        mean load %6.1fs, timeouts %5.1f%%\n",
		st.MeanLoad.Seconds(), st.TimeoutPct())

	client = eepsite.NewClient(candidates, blocked)
	st, err = client.Crawl(site, 50, rand.New(rand.NewPCG(7, 7)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("under the censor: mean load %6.1fs, timeouts %5.1f%% (HTTP 504)\n",
		st.MeanLoad.Seconds(), st.TimeoutPct())

	fmt.Println("\nConclusion (paper, Section 8): despite its decentralized design,")
	fmt.Println("I2P can be blocked cheaply — ten monitoring routers suffice for >95%.")
}
