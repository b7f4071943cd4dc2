package distrib

import (
	"math/rand/v2"

	"github.com/i2pstudy/i2pstudy/internal/censor"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// censorView is the censor side of one arms race against one frontend,
// shared by the arms-race cell (sweep.go) and the trust row
// (trustsweep.go): the enumeration-fed blacklist and discovered set,
// with the one discover rule (leaked resources blacklist their current
// addresses plus those of the introducers a firewalled bridge's record
// names), the one identity-based enumeration (enumerate) and the day's
// partition figures (survival, enumerated). It resolves everything by
// peer index — the introducers through the backend that drew the
// resources, the addresses through the network's sim.AddrTable — and
// keeps no network-derived table of its own.
// Reachability is not decided here: usable applies
// censor.AddrIndex.BridgeUsable, the rule censor's own bridge evaluation
// applies, to this view's blacklist. The insider is not here either:
// its rule differs per engine (a per-request coin on the cell,
// compromised graph users on the trust row). Keeping both sweeps on
// this type keeps their enumeration, blacklists and survival figures
// computing identically by construction.
type censorView struct {
	ix      *censor.AddrIndex
	addrs   *sim.AddrTable
	backend *Backend
	dist    Distributor
	part    *Partition
	enum    Enumerator
	// seed mints the crawler's and the sybils' identities; it is the
	// owning cell's/row's private seed.
	seed uint64
	// rng drives the introducer draws; it is the owning cell's/row's
	// private stream, consumed in call order.
	rng *rand.Rand

	bl         *censor.AddrSet
	discovered map[int]bool
	crawlCarry float64
	sybils     []uint64 // the standing sybil identities, minted once
}

func newCensorView(net *sim.Network, backend *Backend, dist Distributor, enum Enumerator, seed uint64, rng *rand.Rand) *censorView {
	ix := censor.IndexFor(net)
	cv := &censorView{
		ix:         ix,
		addrs:      net.AddrTable(),
		backend:    backend,
		dist:       dist,
		part:       backend.Partition(dist.Name()),
		enum:       enum,
		seed:       seed,
		rng:        rng,
		bl:         ix.NewSet(),
		discovered: make(map[int]bool),
	}
	// Sybil populations are established once, before day zero.
	if enum.Kind == Sybil {
		cv.sybils = make([]uint64, enum.sybilCount(dist.IdentityCost()))
		for i := range cv.sybils {
			cv.sybils[i] = mix(seed, 0x737962696C, uint64(i)) // "sybil"
		}
	}
	return cv
}

// enumerate runs the day's identity-based enumeration: the crawler's
// fresh identities, minted per day at its budget's rate, or the sybils'
// standing population, every handout fed to discover. Re-discovery
// stays daily — a re-queried bridge's *current* address lands on the
// blacklist even when the handout is unchanged — so address rotation
// never shakes the sybils. Identities the frontend never granted
// (uninvited ones on the trust channel) are served nothing and discover
// nothing. The insider enumerates nothing here.
func (cv *censorView) enumerate(day int) error {
	switch cv.enum.Kind {
	case Crawler:
		k := cv.enum.requestsOn(cv.dist.IdentityCost(), &cv.crawlCarry)
		for i := 0; i < k; i++ {
			if err := cv.harvest(mix(cv.seed, 0x637261776C, uint64(day), uint64(i)), day); err != nil { // "crawl"
				return err
			}
		}
	case Sybil:
		for _, id := range cv.sybils {
			if err := cv.harvest(id, day); err != nil {
				return err
			}
		}
	}
	return nil
}

// harvest requests id's handout on day and discovers it.
func (cv *censorView) harvest(id uint64, day int) error {
	h, err := cv.backend.API().Serve(Request{Dist: cv.dist.Name(), ID: id, Day: day})
	if err != nil {
		return err
	}
	cv.discover(h.Resources, day)
	return nil
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

// survival returns the fraction of the frontend's partition still
// usable (active and unblocked) on day.
func (cv *censorView) survival(day int) float64 {
	alive := 0
	for _, r := range cv.part.Resources() {
		if cv.usable(r, day) {
			alive++
		}
	}
	return frac(alive, cv.part.Len())
}

// enumerated returns the fraction of the frontend's partition the censor
// has discovered.
func (cv *censorView) enumerated() float64 {
	return frac(len(cv.discovered), cv.part.Len())
}
