// Command i2pnetdb inspects a netDb snapshot directory of routerInfo-*.dat
// files (as written by the measurement harness or by `i2pmeasure
// -snapshot-dir`), printing the record inventory: capacity flags,
// floodfill share, unknown-IP classification and geographic mix.
//
// Usage:
//
//	i2pnetdb [-workers 0] DIR
//
// The per-record inventory fans out across -workers goroutines (default:
// one per CPU) and Ctrl-C aborts the scan cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"

	"github.com/i2pstudy/i2pstudy/internal/cli"
	"github.com/i2pstudy/i2pstudy/internal/geo"
	"github.com/i2pstudy/i2pstudy/internal/netdb"
	"github.com/i2pstudy/i2pstudy/internal/pool"
	"github.com/i2pstudy/i2pstudy/internal/stats"
)

// inventory is the aggregate of one shard of RouterInfos; shards merge
// commutatively, so the sharded scan matches a serial one exactly.
type inventory struct {
	classCounts                        map[netdb.BandwidthClass]int
	ff, reachable, unknown, firewalled int
	hidden, unresolved                 int
	countries                          *stats.Counter
}

func newInventory() *inventory {
	return &inventory{
		classCounts: map[netdb.BandwidthClass]int{},
		countries:   stats.NewCounter(),
	}
}

func (inv *inventory) add(db *geo.DB, ri *netdb.RouterInfo) {
	for _, cl := range ri.Caps.PublishedClasses() {
		inv.classCounts[cl]++
	}
	if ri.Caps.Floodfill {
		inv.ff++
	}
	if ri.Caps.Reachable {
		inv.reachable++
	}
	if ri.UnknownIP() {
		inv.unknown++
	}
	if ri.Firewalled() {
		inv.firewalled++
	}
	if ri.HiddenPeer() {
		inv.hidden++
	}
	for _, addr := range ri.IPs() {
		if rec, ok := db.Lookup(addr); ok {
			inv.countries.Inc(rec.CountryCode)
		} else {
			inv.unresolved++
		}
	}
}

func (inv *inventory) merge(other *inventory) {
	for cl, n := range other.classCounts {
		inv.classCounts[cl] += n
	}
	inv.ff += other.ff
	inv.reachable += other.reachable
	inv.unknown += other.unknown
	inv.firewalled += other.firewalled
	inv.hidden += other.hidden
	inv.unresolved += other.unresolved
	inv.countries.Merge(other.countries)
}

func main() { cli.Main("i2pnetdb", run) }

func run() error {
	workers := flag.Int("workers", 0, "inventory concurrency (0 = one worker per CPU)")
	flag.Parse()
	if flag.NArg() != 1 {
		return errors.New("usage: i2pnetdb [-workers N] DIR")
	}
	dir := flag.Arg(0)

	ctx, stop := cli.SignalContext()
	defer stop()

	store := netdb.NewStore()
	loaded, err := store.LoadDir(dir)
	if err != nil {
		return err
	}
	fmt.Printf("loaded %d RouterInfos from %s\n\n", loaded, dir)

	inv, err := scan(ctx, store.RouterInfos(), *workers)
	if err != nil {
		return err
	}

	total := store.RouterCount()
	rows := [][]string{{"class", "records", "share"}}
	for _, cl := range netdb.BandwidthClasses {
		rows = append(rows, []string{cl.String(), fmt.Sprint(inv.classCounts[cl]), stats.Percent(inv.classCounts[cl], total)})
	}
	fmt.Println(stats.RenderTable(rows))
	fmt.Printf("floodfill: %d (%s)\n", inv.ff, stats.Percent(inv.ff, total))
	fmt.Printf("reachable: %d (%s)\n", inv.reachable, stats.Percent(inv.reachable, total))
	fmt.Printf("unknown-IP: %d (firewalled %d, hidden %d)\n", inv.unknown, inv.firewalled, inv.hidden)
	fmt.Printf("unresolved addresses: %d\n\n", inv.unresolved)

	top := inv.countries.Top(10)
	rows = [][]string{{"country", "addresses"}}
	for _, kv := range top {
		rows = append(rows, []string{kv.Key, fmt.Sprint(kv.Count)})
	}
	fmt.Println(stats.RenderTable(rows))
	return nil
}

// scanShard is how many records one scan task inventories: large enough
// that a task outweighs its hand-out, small enough that Ctrl-C (checked
// between tasks) lands promptly.
const scanShard = 1024

// scan aggregates the inventory shard by shard across the worker pool
// and merges the shards, which commute.
func scan(ctx context.Context, ris []*netdb.RouterInfo, workers int) (*inventory, error) {
	db := geo.NewDB()
	parts := make([]*inventory, (len(ris)+scanShard-1)/scanShard)
	err := pool.FanOut(ctx, len(parts), workers, func(p int) error {
		part := newInventory()
		for _, ri := range ris[p*scanShard : min((p+1)*scanShard, len(ris))] {
			part.add(db, ri)
		}
		parts[p] = part
		return nil
	})
	if err != nil {
		return nil, err
	}
	inv := newInventory()
	for _, part := range parts {
		inv.merge(part)
	}
	return inv, nil
}
