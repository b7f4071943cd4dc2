package distrib

import (
	"math/rand/v2"

	"github.com/i2pstudy/i2pstudy/internal/censor"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// censorView is the censor-side discovery state shared by the arms-race
// cell (sweep.go) and the trust row (trustsweep.go): the enumeration-fed
// blacklist and discovered set, with the one discover rule (leaked
// resources blacklist their current addresses plus those of the
// introducers a firewalled bridge's record names). It resolves
// everything by peer index — the introducers through the backend that
// drew the resources, the addresses through the network's sim.AddrTable
// — and keeps no network-derived table of its own.
// Reachability is not decided here: usable applies
// censor.AddrIndex.BridgeUsable, the rule censor's own bridge evaluation
// applies, to this view's blacklist. Keeping both sweeps on this type
// keeps their blacklists and survival figures computing identically by
// construction.
type censorView struct {
	ix      *censor.AddrIndex
	addrs   *sim.AddrTable
	backend *Backend
	// rng drives the introducer draws; it is the owning cell's/row's
	// private stream, consumed in call order.
	rng *rand.Rand

	bl         *censor.AddrSet
	discovered map[int]bool
}

func newCensorView(net *sim.Network, backend *Backend, rng *rand.Rand) *censorView {
	ix := censor.IndexFor(net)
	return &censorView{
		ix:         ix,
		addrs:      net.AddrTable(),
		backend:    backend,
		rng:        rng,
		bl:         ix.NewSet(),
		discovered: make(map[int]bool),
	}
}

// discover feeds leaked resources into the censor's state: the resource
// peers are marked discovered and their current addresses join the
// blacklist. A firewalled bridge's handout names introducers instead of
// its own address; the censor blocks their current addresses too —
// innocent known-IP relays, which is where collateral damage comes from.
func (cv *censorView) discover(rs []Resource, day int) {
	for _, r := range rs {
		cv.discovered[r.Peer] = true
		cv.block(r.Peer, day)
		for _, in := range cv.backend.pool[r.Peer] {
			cv.block(int(in), day)
		}
	}
}

// block adds the addresses peer idx publishes on day to the blacklist.
func (cv *censorView) block(idx, day int) {
	v4, v6 := cv.addrs.PeerIDs(idx, day)
	cv.bl.Add(v4)
	cv.bl.Add(v6)
}

// usable reports whether one handed-out bridge works on `day` under the
// view's blacklist, drawing introducers from the view's rng.
func (cv *censorView) usable(r Resource, day int) bool {
	return cv.ix.BridgeUsable(cv.bl, r.Peer, day, cv.rng)
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
