package distrib

import (
	"github.com/i2pstudy/i2pstudy/internal/cache"
	"github.com/i2pstudy/i2pstudy/internal/censor"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// ownersRing names the owner-table memo's series in the i2p_cache_*
// metric families.
const ownersRing = "distrib_owners"

func init() { cache.PreRegisterRing(ownersRing) }

// ownersKey is the owner memo's sim.Derive key.
type ownersKey struct{}

// ownersFor returns the day's addrID -> publishing-peer table
// (owners[addrID] = the peer publishing the address that day, or -1), a
// pure function of the immutable network and the day. Every arms-race
// cell folds one per horizon day (collateral accounting), so the tables
// are network-owned (sim.Derive): one day-indexed cache.DayMemo per
// network, holding at most the network's own days, shared by every
// sweep on it and collected with it. The slice is read-only.
func ownersFor(n *sim.Network, day int) []int32 {
	memo := sim.Derive(n, ownersKey{}, func() *cache.DayMemo[[]int32] {
		return cache.NewDayMemo[[]int32](n.Days(), ownersRing)
	})
	return memo.Get(day, func(day int) []int32 { return buildOwners(n, day) })
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
