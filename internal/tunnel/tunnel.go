// Package tunnel chooses I2P tunnel hops (Section 2.1.1): which routers
// may serve as a hop under a selection policy that honors capacity flags,
// and a prepared weighted draw over them. The eepsite package models
// tunnel builds and Figure 14's page loads on top of it.
//
// Hop selection reads three things of a router — its identity, its
// capacity flags and whether it publishes an address of its own — so it
// takes a Candidate, not the router's RouterInfo: a netDb of records
// converts once (CandidateOf), and a simulated network hands over its
// peers' flags without building a record.
//
// Hop selection is prepare once, draw many: Selector.Prepare filters and
// weights a netDb view into an immutable HopPool, and every tunnel-build
// attempt after that is a HopPool.Select — a few binary searches over the
// pool's prefix sums, shared freely between goroutines. The draw is
// bit-compatible with a linear scan that subtracts weights from
// x = rng.Float64() * total until x <= 0: the weights are small integers,
// so every subtraction that leaves x positive is exact in float64 and
// "x minus the first i weights <= 0" is the same predicate as
// "x <= prefix[i]".
package tunnel

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"github.com/i2pstudy/i2pstudy/internal/netdb"
)

// MaxHops is the largest configurable tunnel length: "tunnels can be
// configured to comprise up to seven hops" (Section 2.1.1).
const MaxHops = 7

// DefaultHops is the common tunnel length used in the paper's figures.
const DefaultHops = 2

// DefaultHopRTT is the per-hop round-trip cost of tunnel construction when
// no model is supplied: a mid-range figure for relayed hops.
const DefaultHopRTT = 250 * time.Millisecond

// Candidate is what hop selection reads of one router.
type Candidate struct {
	Identity netdb.Hash
	Caps     netdb.Caps
	// KnownIP reports whether the router publishes an address of its own
	// (RouterInfo.HasKnownIP); a firewalled router publishes only its
	// introducers'.
	KnownIP bool
}

// CandidateOf returns what hop selection reads of ri. A nil record is
// the zero Candidate, which no policy accepts.
func CandidateOf(ri *netdb.RouterInfo) Candidate {
	if ri == nil {
		return Candidate{}
	}
	return Candidate{Identity: ri.Identity, Caps: ri.Caps, KnownIP: ri.HasKnownIP()}
}

// Selector picks tunnel hops from candidates using the peer selection
// criteria the paper describes: higher-bandwidth, reachable peers
// are preferred ("The higher the specifications a router has, the higher
// the probability that it will be selected to participate in more tunnels",
// Section 4.2).
type Selector struct {
	// MinClass excludes peers advertising less bandwidth. The Java router
	// excludes K and L peers from client tunnels by default.
	MinClass netdb.BandwidthClass
	// AllowUnreachable permits U-flagged peers as hops; the default (false)
	// matches the Java router, which only builds through reachable peers.
	AllowUnreachable bool
}

// DefaultSelector returns the selection policy used in the experiments.
func DefaultSelector() Selector {
	return Selector{MinClass: netdb.ClassM, AllowUnreachable: false}
}

// Eligible reports whether c can serve as a tunnel hop under this policy.
func (s Selector) Eligible(c Candidate) bool {
	if c.Caps.Hidden || !c.KnownIP {
		// Hidden and firewalled peers do not route for arbitrary others;
		// firewalled peers require introducers and are skipped for
		// simplicity, matching their U flag.
		return false
	}
	if !s.AllowUnreachable && !c.Caps.Reachable {
		return false
	}
	if !c.Caps.Class.AtLeast(s.MinClass) {
		return false
	}
	return true
}

// weight returns the selection weight for an eligible candidate: bandwidth
// class index squared, so O/P/X peers carry most tunnels, as the paper's
// profiling citation (zzz & Schimmer 2009) describes.
func (s Selector) weight(c Candidate) int64 {
	idx := int64(c.Caps.Class.Index() + 1)
	return idx * idx
}

// ErrNotEnoughPeers is returned when fewer eligible peers remain than
// the hops asked for.
var ErrNotEnoughPeers = errors.New("tunnel: not enough eligible peers")

// HopPool is a candidate set prepared for hop selection: the candidates
// that pass a Selector's policy, as an identity column beside the running sum
// of their weights. It is immutable once Prepare returns and safe for
// concurrent Select.
type HopPool struct {
	ids []netdb.Hash
	// prefix[i] is the summed weight of ids[0..i].
	prefix []int64
	// index maps an identity to its position in ids, for exclude.
	index map[netdb.Hash]int32
}

// Prepare filters candidates by Eligible and weights them once, in input
// order. A pool holds one entry per identity: of several candidates with
// the same identity the first eligible one counts.
func (s Selector) Prepare(candidates []Candidate) *HopPool {
	eligible := 0
	for _, c := range candidates {
		if s.Eligible(c) {
			eligible++
		}
	}
	p := &HopPool{
		ids:    make([]netdb.Hash, 0, eligible),
		prefix: make([]int64, 0, eligible),
		index:  make(map[netdb.Hash]int32, eligible),
	}
	total := int64(0)
	for _, c := range candidates {
		if !s.Eligible(c) {
			continue
		}
		if _, dup := p.index[c.Identity]; dup {
			continue
		}
		total += s.weight(c)
		p.index[c.Identity] = int32(len(p.ids))
		p.ids = append(p.ids, c.Identity)
		p.prefix = append(p.prefix, total)
	}
	return p
}

// weight returns the weight of the entry at pool position i.
func (p *HopPool) weight(i int32) int64 {
	if i == 0 {
		return p.prefix[0]
	}
	return p.prefix[i] - p.prefix[i-1]
}

// Select draws n distinct hops from the pool, excluding any hash in
// exclude (typically the owner itself and hops of the paired tunnel).
// Selection is weighted random without replacement: each draw takes
// x = rng.Float64() * (remaining weight) and picks the first remaining
// entry whose running weight reaches x; the picked entry's slot is then
// filled by the last remaining entry.
//
// The pool is never copied or edited. The entries left after exclude are
// addressed through the sorted list of excluded positions, and the slots a
// draw refilled are kept as at most n patches, so the running weight at
// any slot is a prefix sum plus a few corrections and each draw is a
// binary search.
func (p *HopPool) Select(n int, exclude map[netdb.Hash]bool, rng *rand.Rand) ([]netdb.Hash, error) {
	if n <= 0 || n > MaxHops {
		return nil, fmt.Errorf("tunnel: invalid hop count %d", n)
	}
	var d draw
	d.pool = p
	d.gone = d.goneBuf[:0]
	for h, on := range exclude {
		if pos, ok := p.index[h]; on && ok {
			at, _ := slices.BinarySearch(d.gone, pos)
			d.gone = slices.Insert(d.gone, at, pos)
		}
	}
	live := len(p.ids) - len(d.gone)
	if live < n {
		return nil, fmt.Errorf("%w: need %d, have %d", ErrNotEnoughPeers, n, live)
	}
	total := d.running(live - 1)
	hops := make([]netdb.Hash, 0, n)
	for len(hops) < n {
		x := rng.Float64() * float64(total)
		// The first slot whose running weight reaches x; rounding in the
		// product can leave x past every slot, which means the last one.
		lo, hi := 0, live-1
		for lo < hi {
			mid := (lo + hi) / 2
			if x <= float64(d.running(mid)) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		at := d.entry(lo)
		hops = append(hops, p.ids[at])
		total -= p.weight(at)
		live--
		if lo != live {
			d.refill(lo, d.entry(live))
		}
	}
	return hops, nil
}

// draw is the state of one Select: which pool positions exclude removed
// and which slots earlier draws refilled. A slot is an index into the
// entries still in play; before any draw slot v holds the v-th
// non-excluded pool position.
type draw struct {
	pool *HopPool
	// gone lists the excluded pool positions in ascending order; goneBuf
	// backs it for the usual handful of excludes.
	gone    []int32
	goneBuf [2 * MaxHops]int32
	// patch[:patches] are the refilled slots: slot holds pool position at,
	// which weighs delta more than what the slot held before any draw.
	patch [MaxHops]struct {
		slot, at int32
		delta    int64
	}
	patches int
}

// origin returns the pool position slot v held before any draw, and the
// summed weight of the excluded positions before it.
func (d *draw) origin(v int) (at int32, skipped int64) {
	at = int32(v)
	for _, g := range d.gone {
		if g > at {
			break
		}
		at++
		skipped += d.pool.weight(g)
	}
	return at, skipped
}

// patched returns which patch holds slot v, or d.patches when none does.
func (d *draw) patched(v int) int {
	i := 0
	for i < d.patches && int(d.patch[i].slot) != v {
		i++
	}
	return i
}

// entry returns the pool position slot v holds now.
func (d *draw) entry(v int) int32 {
	if i := d.patched(v); i < d.patches {
		return d.patch[i].at
	}
	at, _ := d.origin(v)
	return at
}

// running returns the summed weight of slots 0..v as they stand now.
func (d *draw) running(v int) int64 {
	at, skipped := d.origin(v)
	sum := d.pool.prefix[at] - skipped
	for _, pt := range d.patch[:d.patches] {
		if int(pt.slot) <= v {
			sum += pt.delta
		}
	}
	return sum
}

// refill records that slot v now holds pool position at.
func (d *draw) refill(v int, at int32) {
	i := d.patched(v)
	if i == d.patches {
		d.patches++
	}
	was, _ := d.origin(v)
	d.patch[i].slot, d.patch[i].at = int32(v), at
	d.patch[i].delta = d.pool.weight(at) - d.pool.weight(was)
}
