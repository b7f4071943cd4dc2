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
	victim := censor.NewVictim(network, 1234)

	fmt.Println("== Part 1: blocking rates (Figure 13) ==")
	for _, window := range []int{1, 5, 30} {
		cz, err := censor.NewCensor(network, 20, window, 99)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("blacklist window %2d days: ", window)
		for _, k := range []int{2, 6, 10, 20} {
			rate := censor.BlockingRate(cz, victim, k, day)
			fmt.Printf(" %2d routers=%5.1f%% ", k, 100*rate)
		}
		fmt.Println()
	}

	fmt.Println("\n== Part 2: usability under blocking (Figure 14) ==")
	// The victim's tunnel candidates come from its own netDb.
	pcg := rand.NewPCG(5, 5)
	var candidates []*netdb.RouterInfo
	for _, idx := range victim.KnownPeers(day) {
		candidates = append(candidates, network.RouterInfoFor(network.Peers[idx], day, pcg))
	}
	site := eepsite.NewSite(netdb.HashFromUint64(808))

	// Tie the two parts together: derive the blocked-peer predicate from a
	// real censor blacklist rather than a synthetic rate.
	cz, err := censor.NewCensor(network, 20, 5, 99)
	if err != nil {
		log.Fatal(err)
	}
	blockedPeer := cz.BlockedPeerFunc(20, day)
	byHash := make(map[netdb.Hash]int)
	for _, idx := range victim.KnownPeers(day) {
		byHash[network.Peers[idx].ID] = idx
	}
	blocked := func(h netdb.Hash) bool {
		idx, ok := byHash[h]
		return ok && blockedPeer(idx)
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
