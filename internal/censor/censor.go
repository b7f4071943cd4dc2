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
// same any-worker-count-is-byte-identical determinism contract — as every
// other pool.FanOut caller.
package censor

import (
	"context"
	"fmt"
	"math/bits"
	"sync"

	"github.com/i2pstudy/i2pstudy/internal/cache"
	"github.com/i2pstudy/i2pstudy/internal/sim"
	"github.com/i2pstudy/i2pstudy/internal/stats"
)

// Censor models the adversary of Section 6.2.1: "(1) a group of monitoring
// routers operated by a censor (e.g., ISP, government)".
type Censor struct {
	observers []*sim.Observer
	ix        *AddrIndex

	// obsIDs memoizes observedIDs per (router, day): one cache.DayMemo
	// per monitoring router, and all a router's capture keeps. A memo
	// holds the set by value, so a router-day is one allocation.
	obsIDs []*cache.DayMemo[AddrSet]
}

// newCensor creates a censor running `routers` monitoring routers, split
// between floodfill and non-floodfill mode like the paper's fleet. The
// blacklist window is not the censor's: each sweep cell names its own.
func newCensor(network *sim.Network, routers int, seedBase uint64) (*Censor, error) {
	if routers <= 0 {
		return nil, fmt.Errorf("censor: need at least one monitoring router")
	}
	c := &Censor{ix: IndexFor(network)}
	for i := 0; i < routers; i++ {
		c.observers = append(c.observers, network.NewObserver(sim.ObserverConfig{
			Name:       fmt.Sprintf("censor-%02d", i),
			Floodfill:  i%2 == 0,
			SharedKBps: sim.MaxSharedKBps,
			Seed:       seedBase + uint64(i),
		}))
	}
	c.obsIDs = make([]*cache.DayMemo[AddrSet], routers)
	for i := range c.obsIDs {
		c.obsIDs[i] = cache.NewDayMemo[AddrSet](network.Days(), obsIDsRing)
	}
	return c, nil
}

// Routers returns the number of monitoring routers.
func (c *Censor) Routers() int { return len(c.observers) }

// observedIDs returns the set of interned addresses of peers observed by
// one monitoring router on one day. Peers without published addresses
// (firewalled, hidden) contribute nothing — they cannot be address-blocked
// (Section 7.1) — so the router draws only the day column's addressed
// positions. The result is memoized per (router, day); its words are
// shared and must not be modified.
//
// A monitoring router keeps an address set per day, not sighting lists:
// the draw keeps indexes into the day's ID column, so no peer-index list
// is built for a censor's router (ObserveDay is never asked), and the
// memo keeps one bit per address in the index: NumAddrs/8 bytes, where
// an ID list would cost 4 bytes per observed address — more than the
// set, at paper scale, for studies up to about 110 days. Blacklists
// union these sets a 64-bit word at a time; Figure 13's series
// (Sweep.BlockingSeries) draws the victim's addresses itself and reads
// none.
func (c *Censor) observedIDs(router, day int) AddrSet {
	return c.obsIDs[router].Get(day, func(day int) AddrSet {
		s := captureScratch.Get().(*[]int32)
		defer captureScratch.Put(s)
		col := c.ix.dayColumn(day)
		*s = c.observers[router].DrawDayAt(day, col.at, (*s)[:0])
		// Every kept peer has a v4. Its v6 bit goes in branch-free, as
		// nothing predicts which peers publish one: an absent v6 (-1)
		// or-s a zero bit into word 0. The count is taken once, as two
		// peers may share an address.
		set := *c.ix.NewSet()
		for _, k := range *s {
			e := col.ids[k]
			set.words[e.v4>>6] |= 1 << (e.v4 & 63)
			has := ^e.v6 >> 31 // all ones when v6 is present, else 0
			v6 := e.v6 & has
			set.words[v6>>6] |= uint64(has&1) << (v6 & 63)
		}
		for _, w := range set.words {
			set.count += bits.OnesCount64(w)
		}
		return set
	})
}

// captureScratch recycles the draw scratch of observedIDs (kept column
// indexes) and Victim.buildView (drawn positions).
var captureScratch = sync.Pool{New: func() any { return new([]int32) }}

// blacklistSet compiles the blacklist in force on `day` using the first k
// monitoring routers and the given window: the union of addresses
// observed in (day-window, day], as a fresh set over the address index
// that shares no words with the memoized router-days.
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
			rd := c.observedIDs(r, d)
			set.Union(&rd)
		}
	}
	return set
}

// Victim models the client the censor wants to cut off: "a long-term I2P
// node who has been participating in the network and has many RouterInfos
// in its netDb" (Section 6.2.2). Its netDb accumulates the peers a
// client-grade router learns over the last netDbWindowDays days.
type Victim struct {
	net *sim.Network
	obs *sim.Observer
	ix  *AddrIndex

	// views memoizes the per-day netDb view: every sweep cell sharing a
	// day folds against the same view, so without the memo a (fleet x
	// window) grid would rebuild it fleets x windows times per day.
	views *cache.DayMemo[*netDbView]
}

// netDbWindowDays is how many trailing days of observations remain in the
// victim's netDb. Non-floodfill routers expire RouterInfos after a day
// (Section 4.3) but keep records on disk across restarts, so a long-term
// client holds today's view plus a partially stale tail. Part of the tail
// belongs to peers already offline, which a short blacklist window can
// never cover — one of the two reasons wider windows raise blocking rates
// (the other being accumulation over rotating addresses).
const netDbWindowDays = 2

// netDbView is the victim's netDb on one day: the peers it knows, in
// first-seen order (all statuses), and the addresses they published on
// the days the victim saw them. It is shared by every caller and must
// not be modified.
type netDbView struct {
	peers []int
	addrs *AddrSet
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
		ix:    IndexFor(network),
		views: cache.NewDayMemo[*netDbView](network.Days(), victimNetDbRing),
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

// view returns the victim's netDb on day, memoized per day.
func (v *Victim) view(day int) *netDbView {
	return v.views.Get(day, v.buildView)
}

// buildView is the compute behind view: one walk over the draws of the
// netDb window (today fully, earlier days subject to expiry) that keeps
// each peer where it is first seen and, for every sighting, the address
// the peer published on the observation day.
func (v *Victim) buildView(day int) *netDbView {
	s := captureScratch.Get().(*[]int32)
	defer captureScratch.Put(s)
	seen := make([]uint64, (len(v.net.Peers)+63)/64)
	view := &netDbView{addrs: v.ix.NewSet()}
	for d := max(day-netDbWindowDays+1, 0); d <= day; d++ {
		*s = v.obs.DrawDay(d, (*s)[:0])
		active := v.net.ActivePeers(d)
		for _, j := range *s {
			idx := int(active[j])
			if d < day && !retainStale(idx, d) {
				continue
			}
			if w, b := idx>>6, uint64(1)<<(idx&63); seen[w]&b == 0 {
				seen[w] |= b
				view.peers = append(view.peers, idx)
			}
			// Peers without a published address have no IDs (-1), which
			// Add ignores.
			v4, v6 := v.ix.PeerIDs(idx, d)
			view.addrs.Add(v4)
			view.addrs.Add(v6)
		}
	}
	return view
}

// addrSet returns the victim's known peer addresses on day as a set over
// the address index. The set is shared and must not be mutated.
func (v *Victim) addrSet(day int) *AddrSet { return v.view(day).addrs }

// KnownPeers returns the peer indexes in the victim's netDb on day (all
// statuses), in first-seen order, used by the usability and bridge
// experiments. Callers receive a shared slice and must not modify it.
func (v *Victim) KnownPeers(day int) []int { return v.view(day).peers }

// Figure13Context sweeps censor fleet sizes and blacklist windows,
// producing one series per window, each giving the cumulative blocking
// rate (percent) versus the number of monitoring routers — the paper's
// Figure 13. It runs on the adversary engine: one censor fleet and one
// victim are built once, and one BlockingSeries walk answers every
// window, drawing only the victim's addresses each router has not yet
// seen, so no router-day set is built (observers are deterministic in
// (seed, day), so sharing the fleet never changes a draw). Any workers
// value yields a byte-identical figure.
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
	series, err := sw.BlockingSeries(ctx, sw.Cfg.Windows, day, maxRouters)
	if err != nil {
		return nil, err
	}
	fig := &stats.Figure{
		Title:  "Figure 13: Blocking rates under different blacklist time windows",
		XLabel: "routers under censor control",
		YLabel: "blocking rate (%)",
	}
	for i, w := range sw.Cfg.Windows {
		s := fig.AddSeries(fmt.Sprintf("%d day", w))
		for k, rate := range series[i] {
			s.Append(float64(k+1), 100*rate)
		}
	}
	return fig, nil
}
