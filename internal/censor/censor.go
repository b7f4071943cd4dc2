// Package censor implements Section 6's probabilistic address-based
// blocking model: a censor operating monitoring routers inside the network
// compiles a blacklist of observed peer IP addresses (with a configurable
// blacklist time window) and null-routes them; the blocking rate against a
// stable victim client is the fraction of peer addresses in the victim's
// netDb that appear on the blacklist. It also implements the Section 7
// bridge-selection strategies (newly joined and firewalled peers) proposed
// as mitigations, and the Section 7.2 eclipse escalation.
//
// The heavy lifting runs on two shared substrates: an AddrIndex that
// interns every address a peer will publish (so blacklists and netDb views
// are bitsets, not maps), and the Sweep engine that executes declarative
// (fleet x window x day) grids across the same worker pool — and under the
// same any-worker-count-is-byte-identical determinism contract — as
// measure.ObserveGrid.
package censor

import (
	"context"
	"fmt"
	"net/netip"
	"slices"
	"sync"

	"github.com/i2pstudy/i2pstudy/internal/cache"
	"github.com/i2pstudy/i2pstudy/internal/sim"
	"github.com/i2pstudy/i2pstudy/internal/stats"
)

// Censor models the adversary of Section 6.2.1: "(1) a group of monitoring
// routers operated by a censor (e.g., ISP, government)".
type Censor struct {
	net       *sim.Network
	observers []*sim.Observer
	ix        *AddrIndex
	// WindowDays is the blacklist time window: an address stays blocked
	// for this many days after last being observed (the paper evaluates
	// 1, 5, 10, 20 and 30 days).
	WindowDays int

	// obsIDs memoizes observedIDs per (router, day): one cache.DayMemo
	// per monitoring router, and all a router's capture keeps.
	obsIDs []*cache.DayMemo[[]int32]
}

// NewCensor creates a censor running `routers` monitoring routers, split
// between floodfill and non-floodfill mode like the paper's fleet, with
// the given blacklist window.
func NewCensor(network *sim.Network, routers, windowDays int, seedBase uint64) (*Censor, error) {
	if routers <= 0 {
		return nil, fmt.Errorf("censor: need at least one monitoring router")
	}
	if windowDays <= 0 {
		windowDays = 1
	}
	c := &Censor{net: network, ix: IndexFor(network), WindowDays: windowDays}
	for i := 0; i < routers; i++ {
		c.observers = append(c.observers, network.NewObserver(sim.ObserverConfig{
			Name:       fmt.Sprintf("censor-%02d", i),
			Floodfill:  i%2 == 0,
			SharedKBps: sim.MaxSharedKBps,
			Seed:       seedBase + uint64(i),
		}))
	}
	c.obsIDs = make([]*cache.DayMemo[[]int32], routers)
	for i := range c.obsIDs {
		c.obsIDs[i] = cache.NewDayMemo[[]int32](network.Days(), obsIDsRing)
	}
	return c, nil
}

// Routers returns the number of monitoring routers.
func (c *Censor) Routers() int { return len(c.observers) }

// observedIDs returns the interned address IDs of peers observed by one
// monitoring router on one day. Peers without published addresses
// (firewalled, hidden) contribute nothing — they cannot be address-blocked
// (Section 7.1) and the index holds no schedule for them, so their column
// entry is -1. The result is memoized per (router, day) and must not be
// modified.
//
// A monitoring router keeps address IDs, not sighting lists: the draw's
// positions go straight through the day's ID column, so no peer-index
// list is built or memoized for a censor's router (ObserveDay is never
// asked), and the memo keeps a slice of exactly the IDs.
func (c *Censor) observedIDs(router, day int) []int32 {
	return c.obsIDs[router].Get(day, func(day int) []int32 {
		s := captureScratch.Get().(*captureBuf)
		defer captureScratch.Put(s)
		s.pos = c.observers[router].DrawDay(day, s.pos[:0])
		col := c.ix.dayColumn(day)
		// Every sighting stores both IDs and the sign bits advance the
		// cursor — v4 when present, v6 only beside a v4 — because about
		// half the observed peers publish an address and nothing predicts
		// which. The last sighting may store one entry past its IDs.
		ids := slices.Grow(s.ids[:0], 2*len(s.pos)+1)[:2*len(s.pos)+1]
		n := 0
		for _, j := range s.pos {
			e := col[j]
			ids[n] = e.v4
			n += int(^uint32(e.v4) >> 31)
			ids[n] = e.v6
			n += int(^uint32(e.v4|e.v6) >> 31)
		}
		s.ids = ids
		out := make([]int32, n)
		copy(out, ids)
		return out
	})
}

// captureBuf is observedIDs' scratch: a day's drawn positions and the IDs
// they map to, before the exactly-sized copy the memo keeps.
type captureBuf struct{ pos, ids []int32 }

var captureScratch = sync.Pool{New: func() any { return new(captureBuf) }}

// blacklistSet compiles the blacklist in force on `day` using the first k
// monitoring routers and the given window: the union of addresses
// observed in (day-window, day], as a set over the address index.
func (c *Censor) blacklistSet(k, window, day int) *AddrSet {
	if k > len(c.observers) {
		k = len(c.observers)
	}
	set := c.ix.NewSet()
	start := day - window + 1
	if start < 0 {
		start = 0
	}
	for r := 0; r < k; r++ {
		for d := start; d <= day; d++ {
			set.AddAll(c.observedIDs(r, d))
		}
	}
	return set
}

// BlacklistAt compiles the blacklist in force on `day` using the first k
// monitoring routers: the union of addresses observed in the window
// (day-WindowDays, day]. The map is materialized from the internal
// address-index set for external callers; hot paths (BlockingRate,
// BlockedPeerFunc, the sweeps) stay on the set representation.
func (c *Censor) BlacklistAt(k, day int) map[netip.Addr]bool {
	set := c.blacklistSet(k, c.WindowDays, day)
	out := make(map[netip.Addr]bool, set.Len())
	set.ForEach(func(id int32) {
		out[c.ix.Addr(id)] = true
	})
	return out
}

// Victim models the client the censor wants to cut off: "a long-term I2P
// node who has been participating in the network and has many RouterInfos
// in its netDb" (Section 6.2.2). Its netDb accumulates the peers a
// client-grade router learns over the last few days.
type Victim struct {
	net *sim.Network
	obs *sim.Observer
	ix  *AddrIndex
	// NetDbWindowDays is how many trailing days of observations remain in
	// the victim's netDb. Non-floodfill routers expire RouterInfos after a
	// day (netdb.DefaultRouterInfoExpiry) but keep records on disk across
	// restarts, so a long-term client holds today's view plus a partially
	// stale tail; the default of 2 models that. Part of the tail belongs
	// to peers already offline, which a short blacklist window can never
	// cover — one of the two reasons wider windows raise blocking rates
	// (the other being accumulation over rotating addresses).
	NetDbWindowDays int

	// addrSets and knownPeers memoize the per-day netDb views: every
	// sweep cell sharing a day folds against the same victim view, so
	// without the memo a (fleet x window) grid recomputes it
	// fleets x windows times per day. Values are pure in (victim, day),
	// shared across callers, and strictly read-only.
	addrSets   *cache.DayMemo[*AddrSet]
	knownPeers *cache.DayMemo[[]int]
}

// NewVictim creates the stable client. It observes as an ordinary
// non-floodfill router with solid home bandwidth.
func NewVictim(network *sim.Network, seed uint64) *Victim {
	return &Victim{
		net: network,
		obs: network.NewObserver(sim.ObserverConfig{
			Name:       "victim",
			Floodfill:  false,
			SharedKBps: 512,
			Seed:       seed,
		}),
		ix:              IndexFor(network),
		NetDbWindowDays: 2,
		addrSets:        cache.NewDayMemo[*AddrSet](network.Days(), victimAddrSetRing),
		knownPeers:      cache.NewDayMemo[[]int](network.Days(), victimKnownPeersRing),
	}
}

// retainStale reports whether a record observed on a *previous* day
// survives the 24-hour RouterInfo expiry into the victim's current netDb.
// Roughly half do: records refreshed late in the day outlive the pruning
// pass. The decision is deterministic per (peer, observation day).
func retainStale(idx, d int) bool {
	x := uint64(idx)*2654435761 + uint64(d)*40503 + 12345
	x ^= x >> 13
	return x%2 == 0
}

// addrSet returns the victim's known peer addresses on `day` as a set
// over the address index, memoized per day. The set is shared by every
// caller (all cells of a sweep that evaluate the day) and must not be
// mutated.
func (v *Victim) addrSet(day int) *AddrSet {
	return v.addrSets.Get(day, v.buildAddrSet)
}

// buildAddrSet is the from-scratch reference compute behind addrSet —
// KnownAddresses without the map materialization: for every peer
// observed within the netDb window (today fully, earlier days subject to
// expiry), the address the peer published on the observation day. The
// golden equivalence tests and the pre-rolling benchmark comparator call
// it directly to reproduce the unmemoized per-cell cost.
func (v *Victim) buildAddrSet(day int) *AddrSet {
	set := v.ix.NewSet()
	start := day - v.NetDbWindowDays + 1
	if start < 0 {
		start = 0
	}
	for d := start; d <= day; d++ {
		for _, idx := range v.obs.ObserveDay(d) {
			if d < day && !retainStale(idx, d) {
				continue
			}
			if v.net.Peers[idx].Status != sim.StatusKnownIP {
				continue
			}
			v4, v6 := v.ix.PeerIDs(idx, d)
			set.Add(v4)
			set.Add(v6)
		}
	}
	return set
}

// KnownAddresses returns the peer addresses in the victim's netDb on
// `day`, materialized as a map for external callers (see addrSet).
func (v *Victim) KnownAddresses(day int) map[netip.Addr]bool {
	set := v.addrSet(day)
	out := make(map[netip.Addr]bool, set.Len())
	set.ForEach(func(id int32) {
		out[v.ix.Addr(id)] = true
	})
	return out
}

// KnownPeers returns the peer indexes in the victim's netDb on `day`
// (all statuses), used by the usability and bridge experiments — which
// call it per day per sweep cell, so the result is memoized per day.
// Callers receive a shared slice and must not modify it.
func (v *Victim) KnownPeers(day int) []int {
	return v.knownPeers.Get(day, v.buildKnownPeers)
}

// buildKnownPeers is the from-scratch compute behind KnownPeers. The
// dedup runs on a bitset over peer indexes instead of the historical
// map[int]bool — same first-seen append order, so the memoized slice is
// byte-identical to what the map-based fold produced.
func (v *Victim) buildKnownPeers(day int) []int {
	seen := make([]uint64, (len(v.net.Peers)+63)/64)
	var out []int
	start := day - v.NetDbWindowDays + 1
	if start < 0 {
		start = 0
	}
	for d := start; d <= day; d++ {
		for _, idx := range v.obs.ObserveDay(d) {
			if d < day && !retainStale(idx, d) {
				continue
			}
			if w, b := idx>>6, uint64(1)<<(idx&63); seen[w]&b == 0 {
				seen[w] |= b
				out = append(out, idx)
			}
		}
	}
	return out
}

// BlockingRate computes the Section 6.2.1 metric on `day` with the first k
// censor routers: "the rate of peer IP addresses seen in the netDb of the
// victim, which can also be found in the netDb of routers that are
// controlled by the censor". The censor and victim must share a network.
func BlockingRate(c *Censor, v *Victim, k, day int) float64 {
	vic := v.addrSet(day)
	if vic.Len() == 0 {
		return 0
	}
	bl := c.blacklistSet(k, c.WindowDays, day)
	return float64(bl.IntersectCount(vic)) / float64(vic.Len())
}

// BlockedPeerFunc returns a predicate over peer indexes: whether the
// peer's current address is on the blacklist on `day`. Peers without
// addresses are never blocked.
func (c *Censor) BlockedPeerFunc(k, day int) func(peerIdx int) bool {
	return c.blockedPeerFunc(k, c.WindowDays, day)
}

// blockedPeerFunc is BlockedPeerFunc with an explicit window (the sweep
// engine evaluates several windows against one censor fleet).
func (c *Censor) blockedPeerFunc(k, window, day int) func(peerIdx int) bool {
	set := c.blacklistSet(k, window, day)
	ix := c.ix
	return func(idx int) bool {
		v4, v6 := ix.PeerIDs(idx, day)
		return set.Has(v4) || set.Has(v6)
	}
}

// Figure13Context sweeps censor fleet sizes and blacklist windows,
// producing one series per window, each giving the cumulative blocking
// rate (percent) versus the number of monitoring routers — the paper's
// Figure 13. It runs on the adversary engine: one censor fleet and one
// victim are built once and shared by every window series (observers
// are deterministic in (seed, day), so reuse never changes a draw);
// captures warm through the parallel engine; each window cell folds an
// incremental blacklist union over fleet prefixes. Any workers value
// yields a byte-identical figure.
func Figure13Context(ctx context.Context, network *sim.Network, maxRouters int, windows []int, day int, seedBase uint64, workers int) (*stats.Figure, error) {
	if len(windows) == 0 {
		windows = []int{1, 5, 10, 20, 30}
	}
	sw, err := NewSweep(network, SweepConfig{
		Fleets:   []int{maxRouters},
		Windows:  windows,
		Days:     []int{day},
		SeedBase: seedBase,
		Workers:  workers,
	})
	if err != nil {
		return nil, err
	}
	if err := sw.Capture(ctx); err != nil {
		return nil, err
	}
	cells := sw.Cells()
	series := make([][]float64, len(cells))
	err = sw.Each(ctx, func(i int, cu *Cursor) error {
		cell := cu.Cell()
		series[i] = sw.BlockingSeries(cell.Window, cell.Day, cell.Fleet)
		return nil
	})
	if err != nil {
		return nil, err
	}
	fig := &stats.Figure{
		Title:  "Figure 13: Blocking rates under different blacklist time windows",
		XLabel: "routers under censor control",
		YLabel: "blocking rate (%)",
	}
	for i, cell := range cells {
		s := fig.AddSeries(fmt.Sprintf("%d day", cell.Window))
		for k, rate := range series[i] {
			s.Append(float64(k+1), 100*rate)
		}
	}
	return fig, nil
}
