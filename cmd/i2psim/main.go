// Command i2psim builds a synthetic I2P network calibrated to the paper's
// measured marginals and prints its daily composition: population, address
// publication statuses, capacity flags, floodfill share.
//
// Usage:
//
//	i2psim [-peers 30500] [-days 90] [-seed 2018] [-day 45]
//
// The paper's experiments run from cmd/i2pmeasure and cmd/i2pcensor.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/i2pstudy/i2pstudy/internal/cli"
	"github.com/i2pstudy/i2pstudy/internal/geo"
	"github.com/i2pstudy/i2pstudy/internal/netdb"
	"github.com/i2pstudy/i2pstudy/internal/sim"
	"github.com/i2pstudy/i2pstudy/internal/stats"
)

func main() { cli.Main("i2psim", run) }

func run() error {
	peers := flag.Int("peers", sim.PaperDailyPeers, "target daily peer population")
	days := flag.Int("days", 90, "study horizon in days")
	seed := flag.Uint64("seed", 2018, "simulation seed")
	day := flag.Int("day", -1, "day to summarize (default: middle of the study)")
	flag.Parse()

	net, err := sim.New(sim.Config{Seed: *seed, Days: *days, TargetDailyPeers: *peers})
	if err != nil {
		return err
	}
	d := *day
	if d < 0 {
		d = *days / 2
	}
	if d >= *days {
		return fmt.Errorf("day %d outside study horizon %d", d, *days)
	}

	active := net.ActivePeers(d)
	fmt.Printf("network: %d peers total across %d days (seed %d)\n", len(net.Peers), *days, *seed)
	fmt.Printf("day %d (%s): %d active peers\n\n", d, net.DayTime(d).Format("2006-01-02"), len(active))

	statusCounts := map[sim.Status]int{}
	classCounts := map[netdb.BandwidthClass]int{}
	ff, reach := 0, 0
	countries := stats.NewCounter()
	for _, idx := range active {
		p := &net.Peers[idx]
		statusCounts[p.Status]++
		classCounts[p.Class]++
		if p.Floodfill {
			ff++
		}
		if p.Reachable && p.Status == sim.StatusKnownIP {
			reach++
		}
		countries.Inc(geo.UnpackCountry(p.Country))
	}

	rows := [][]string{{"status", "peers", "share"}}
	for _, s := range []sim.Status{sim.StatusKnownIP, sim.StatusFirewalled, sim.StatusHidden, sim.StatusToggling} {
		rows = append(rows, []string{s.String(), fmt.Sprint(statusCounts[s]), stats.Percent(statusCounts[s], len(active))})
	}
	fmt.Println(stats.RenderTable(rows))

	rows = [][]string{{"class", "peers", "share"}}
	for _, cl := range netdb.BandwidthClasses {
		rows = append(rows, []string{cl.String(), fmt.Sprint(classCounts[cl]), stats.Percent(classCounts[cl], len(active))})
	}
	fmt.Println(stats.RenderTable(rows))

	fmt.Printf("floodfill routers: %d (%s)\n", ff, stats.Percent(ff, len(active)))
	fmt.Printf("reachable known-IP peers: %d\n\n", reach)

	top := countries.Top(10)
	rows = [][]string{{"country", "peers"}}
	for _, kv := range top {
		rows = append(rows, []string{kv.Key, fmt.Sprint(kv.Count)})
	}
	fmt.Println(stats.RenderTable(rows))
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "ignored arguments:", flag.Args())
	}
	return nil
}
