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
	"io"
	"os"

	"github.com/i2pstudy/i2pstudy/internal/cli"
	"github.com/i2pstudy/i2pstudy/internal/geo"
	"github.com/i2pstudy/i2pstudy/internal/netdb"
	"github.com/i2pstudy/i2pstudy/internal/sim"
	"github.com/i2pstudy/i2pstudy/internal/stats"
)

func main() {
	cli.Main("i2psim", func() error { return run(flag.CommandLine, os.Args[1:], os.Stdout) })
}

// run parses args into fs, checks the summary day against the horizon
// before the network is built, and writes the day's composition to out.
func run(fs *flag.FlagSet, args []string, out io.Writer) error {
	peers := fs.Int("peers", sim.PaperDailyPeers, "target daily peer population")
	days := fs.Int("days", 90, "study horizon in days")
	seed := fs.Uint64("seed", 2018, "simulation seed")
	day := fs.Int("day", -1, "day to summarize (default: middle of the study)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, err := summaryDay(*day, *days)
	if err != nil {
		return err
	}

	net, err := sim.New(sim.Config{Seed: *seed, Days: *days, TargetDailyPeers: *peers})
	if err != nil {
		return err
	}

	active := net.ActivePeers(d)
	fmt.Fprintf(out, "network: %d peers total across %d days (seed %d)\n", len(net.Peers), *days, *seed)
	fmt.Fprintf(out, "day %d (%s): %d active peers\n\n", d, net.DayTime(d).Format("2006-01-02"), len(active))

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
	fmt.Fprintln(out, stats.RenderTable(rows))

	rows = [][]string{{"class", "peers", "share"}}
	for _, cl := range netdb.BandwidthClasses {
		rows = append(rows, []string{cl.String(), fmt.Sprint(classCounts[cl]), stats.Percent(classCounts[cl], len(active))})
	}
	fmt.Fprintln(out, stats.RenderTable(rows))

	fmt.Fprintf(out, "floodfill routers: %d (%s)\n", ff, stats.Percent(ff, len(active)))
	fmt.Fprintf(out, "reachable known-IP peers: %d\n\n", reach)

	top := countries.Top(10)
	rows = [][]string{{"country", "peers"}}
	for _, kv := range top {
		rows = append(rows, []string{kv.Key, fmt.Sprint(kv.Count)})
	}
	fmt.Fprintln(out, stats.RenderTable(rows))
	if fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "ignored arguments:", fs.Args())
	}
	return nil
}

// summaryDay resolves the -day flag against a days-long study: -1, the
// default, is the middle day, and any other day must lie in [0, days).
// A horizon that is not positive is left to sim.New to refuse.
func summaryDay(day, days int) (int, error) {
	if day == -1 {
		day = days / 2
	}
	if days > 0 && (day < 0 || day >= days) {
		return 0, fmt.Errorf("day %d outside study horizon %d", day, days)
	}
	return day, nil
}
