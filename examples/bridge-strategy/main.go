// Bridge strategy: the paper's future-work proposal (Sections 7.1 and 8) —
// distributing newly joined peers and firewalled peers as bridges for
// users behind an address-blocking censor — evaluated over a ten-day
// horizon, plus the manual-reseed escape hatch of Section 6.1.
//
// Run with:
//
//	go run ./examples/bridge-strategy
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"
	"os"
	"path/filepath"

	"github.com/i2pstudy/i2pstudy/internal/censor"
	"github.com/i2pstudy/i2pstudy/internal/netdb"
	"github.com/i2pstudy/i2pstudy/internal/reseed"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

func main() {
	log.SetFlags(0)

	network, err := sim.New(sim.Config{Seed: 4, Days: 45, TargetDailyPeers: 3050})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== Part 1: manual reseeding under a reseed blockade (Section 6.1) ==")
	day := 10
	pcg := rand.NewPCG(8, 8)
	var friendView []*netdb.RouterInfo
	for i, idx := range network.ActivePeers(day) {
		if i >= 150 {
			break
		}
		p := network.Peers[idx]
		if p.Status == sim.StatusKnownIP {
			friendView = append(friendView, network.RouterInfo(day, network.SightingFor(p, day, pcg)))
		}
	}
	dir, err := os.MkdirTemp("", "i2pseeds")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	seedPath := filepath.Join(dir, reseed.SeedFileName)
	if err := reseed.WriteSeedFile(seedPath, friendView, "friendly-peer", network.DayTime(day)); err != nil {
		log.Fatal(err)
	}
	bundle, err := reseed.ReadSeedFile(seedPath)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("friend exported %s with %d RouterInfos; blocked user bootstrapped from it\n\n",
		reseed.SeedFileName, len(bundle.Records))

	fmt.Println("== Part 2: bridge pools under a 6-router censor (Section 7.1) ==")
	evs, err := censor.EvaluateBridgesContext(context.Background(), network, 5, 20, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-14s %8s %10s %10s   usable-by-day\n", "strategy", "pool", "initial", "final")
	for _, e := range evs {
		fmt.Printf("%-14s %8d %9.0f%% %9.0f%%   ", e.Strategy, e.PoolSize,
			100*e.InitialUsable(), 100*e.FinalUsable())
		for _, u := range e.UsableByDay {
			fmt.Printf("%3.0f ", 100*u)
		}
		fmt.Println()
	}

	fmt.Println("\nReading the table:")
	fmt.Println("- random known-IP bridges are mostly blacklisted before distribution;")
	fmt.Println("- newly joined peers start usable but decay as the censor discovers them;")
	fmt.Println("- firewalled peers expose no blockable address: only their introducer")
	fmt.Println("  path and their own churn limit them — the paper's 'potentially")
	fmt.Println("  sustainable' candidate when combined with fresh peers.")
}
