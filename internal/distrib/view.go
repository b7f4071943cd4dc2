package distrib

import (
	"math/rand/v2"

	"github.com/i2pstudy/i2pstudy/internal/censor"
	"github.com/i2pstudy/i2pstudy/internal/netdb"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// censorView is the censor-side discovery state shared by the arms-race
// cell (sweep.go) and the trust row (trustsweep.go): the enumeration-fed
// blacklist and discovered set, with the one discover rule (leaked
// resources blacklist their current addresses plus the introducer
// addresses a firewalled bridge's record carries). Reachability is not
// decided here: usable applies censor.AddrIndex.BridgeUsable, the rule
// censor's own bridge evaluation applies, to this view's blacklist.
// Keeping both sweeps on this type keeps their blacklists and survival
// figures computing identically by construction.
type censorView struct {
	ix         *censor.AddrIndex
	peerByHash map[netdb.Hash]int
	// introducersPerBridge is how many introducer draws a firewalled
	// bridge gets per reachability check.
	introducersPerBridge int
	// rng drives the introducer draws; it is the owning cell's/row's
	// private stream, consumed in call order.
	rng *rand.Rand

	bl         *censor.AddrSet
	discovered map[int]bool
}

func newCensorView(net *sim.Network, introducersPerBridge int, rng *rand.Rand) *censorView {
	ix := censor.IndexFor(net)
	return &censorView{
		ix:                   ix,
		peerByHash:           peerIndexByHash(net),
		introducersPerBridge: introducersPerBridge,
		rng:                  rng,
		bl:                   ix.NewSet(),
		discovered:           make(map[int]bool),
	}
}

// discover feeds leaked resources into the censor's state: the resource
// peers are marked discovered and their current addresses join the
// blacklist. A firewalled bridge's handout carries introducer addresses
// instead of its own; the censor blocks those too — innocent known-IP
// relays, which is where collateral damage comes from.
func (cv *censorView) discover(rs []Resource, day int) {
	for _, r := range rs {
		cv.discovered[r.Peer] = true
		v4, v6 := cv.ix.PeerIDs(r.Peer, day)
		cv.bl.Add(v4)
		cv.bl.Add(v6)
		for _, ra := range r.Record.Addresses {
			for _, in := range ra.Introducers {
				if idx, ok := cv.peerByHash[in.Hash]; ok {
					iv4, iv6 := cv.ix.PeerIDs(idx, day)
					cv.bl.Add(iv4)
					cv.bl.Add(iv6)
				}
			}
		}
	}
}

// usable reports whether one handed-out bridge works on `day` under the
// view's blacklist, drawing introducers from the view's rng.
func (cv *censorView) usable(r Resource, day int) bool {
	return cv.ix.BridgeUsable(cv.bl, r.Peer, day, cv.introducersPerBridge, cv.rng)
}

// anyUsable reports whether any resource of a handout is usable.
func (cv *censorView) anyUsable(rs []Resource, day int) bool {
	for _, r := range rs {
		if cv.usable(r, day) {
			return true
		}
	}
	return false
}

// peerByHashKey is the reverse map's sim.Derive key.
type peerByHashKey struct{}

// peerIndexByHash returns the network-owned (sim.Derive) identity-hash ->
// peer-index reverse map both sweeps resolve RouterInfo introducer
// hashes through; read-only.
func peerIndexByHash(net *sim.Network) map[netdb.Hash]int {
	return sim.Derive(net, peerByHashKey{}, func() map[netdb.Hash]int {
		m := make(map[netdb.Hash]int, len(net.Peers))
		for _, p := range net.Peers {
			m[p.ID] = p.Index
		}
		return m
	})
}
