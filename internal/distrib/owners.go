package distrib

import (
	"sync"

	"github.com/i2pstudy/i2pstudy/internal/cache"
	"github.com/i2pstudy/i2pstudy/internal/censor"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// ownersRing names the owner-table memo's series in the i2p_cache_*
// metric families.
const ownersRing = "distrib_owners"

func init() { cache.PreRegisterRing(ownersRing) }

// Owner tables — owners[addrID] = the peer publishing the address on a
// day, or -1 — are pure functions of the immutable network and the day,
// exactly like the shared censor.AddrIndex they are built over. Every
// arms-race cell folds one per horizon day (collateral accounting), so
// the tables are shared process-wide, keyed (network, day) like
// censor.indexFor: one day-indexed cache.DayMemo per network (pinned
// for the process lifetime, matching the index cache), which can hold
// at most the network's own days.
//
// Epoch-cache contract: sim.Network is immutable after construction,
// which is what makes lock-free sharing safe. Any future mutating
// network API (live churn, streaming arrivals) must invalidate or epoch
// these entries together with censor's AddrIndex cache and the
// per-observer ObserveDay memos — see ROADMAP.md.
var ownerCache sync.Map // *sim.Network -> *cache.DayMemo[[]int32]

// ownersFor returns the day's shared addrID -> publishing-peer table.
// The slice is shared across every sweep on the network and must be
// treated as read-only.
func ownersFor(n *sim.Network, day int) []int32 {
	v, ok := ownerCache.Load(n)
	if !ok {
		v, _ = ownerCache.LoadOrStore(n, cache.NewDayMemo[[]int32](n.Days(), ownersRing))
	}
	return v.(*cache.DayMemo[[]int32]).Get(day, func(day int) []int32 { return buildOwners(n, day) })
}

// buildOwners is the from-scratch reference compute behind ownersFor.
func buildOwners(n *sim.Network, day int) []int32 {
	ix := censor.IndexFor(n)
	owners := make([]int32, ix.NumAddrs())
	for i := range owners {
		owners[i] = -1
	}
	for _, idx := range n.ActivePeers(day) {
		if n.Peers[idx].Status != sim.StatusKnownIP {
			continue
		}
		v4, v6 := ix.PeerIDs(idx, day)
		if v4 >= 0 {
			owners[v4] = int32(idx)
		}
		if v6 >= 0 {
			owners[v6] = int32(idx)
		}
	}
	return owners
}
