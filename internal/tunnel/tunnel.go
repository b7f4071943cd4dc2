// Package tunnel implements I2P's unidirectional tunnels (Section 2.1.1):
// hop selection honoring capacity flags, tunnel construction through a
// connectivity oracle (where address-based blocking bites), the ten-minute
// tunnel lifetime, and garlic-message bundling with layered encryption.
//
// A single round trip between two destinations crosses four tunnels (the
// paper's Figure 1): the requester's outbound, the responder's inbound, the
// responder's outbound and the requester's inbound. The eepsite package
// builds on this to reproduce the page-load experiment of Figure 14.
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

// Lifetime is how long a tunnel remains valid: "New tunnels are formed
// every ten minutes" (Section 2.1.1).
const Lifetime = 10 * time.Minute

// MaxHops is the largest configurable tunnel length: "tunnels can be
// configured to comprise up to seven hops" (Section 2.1.1).
const MaxHops = 7

// DefaultHops is the common tunnel length used in the paper's figures.
const DefaultHops = 2

// DefaultHopRTT is the per-hop round-trip cost of tunnel construction when
// no model is supplied: a mid-range figure for relayed hops.
const DefaultHopRTT = 250 * time.Millisecond

// Direction distinguishes inbound from outbound tunnels.
type Direction int

// Tunnel directions.
const (
	Inbound Direction = iota
	Outbound
)

func (d Direction) String() string {
	if d == Inbound {
		return "inbound"
	}
	return "outbound"
}

// Tunnel is one established unidirectional tunnel. Hops are ordered from
// gateway to endpoint.
type Tunnel struct {
	ID        uint32
	Direction Direction
	Owner     netdb.Hash
	Hops      []netdb.Hash
	Built     time.Time
	Expires   time.Time
}

// Gateway returns the entry router of the tunnel. For inbound tunnels this
// is the published contact point (what LeaseSets carry); for outbound
// tunnels it is known only to the owner (Section 2.1.1).
func (t *Tunnel) Gateway() netdb.Hash {
	if len(t.Hops) == 0 {
		return netdb.Hash{}
	}
	return t.Hops[0]
}

// Endpoint returns the exit router of the tunnel.
func (t *Tunnel) Endpoint() netdb.Hash {
	if len(t.Hops) == 0 {
		return netdb.Hash{}
	}
	return t.Hops[len(t.Hops)-1]
}

// Live reports whether the tunnel is still valid at time now.
func (t *Tunnel) Live(now time.Time) bool {
	return now.Before(t.Expires)
}

// Contains reports whether h participates in the tunnel.
func (t *Tunnel) Contains(h netdb.Hash) bool {
	for _, hop := range t.Hops {
		if hop == h {
			return true
		}
	}
	return false
}

// Selector picks tunnel hops from RouterInfo candidates using the peer
// selection criteria the paper describes: higher-bandwidth, reachable peers
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

// Eligible reports whether ri can serve as a tunnel hop under this policy.
func (s Selector) Eligible(ri *netdb.RouterInfo) bool {
	if ri == nil {
		return false
	}
	if ri.Caps.Hidden || !ri.HasKnownIP() {
		// Hidden and firewalled peers do not route for arbitrary others;
		// firewalled peers require introducers and are skipped for
		// simplicity, matching their U flag.
		return false
	}
	if !s.AllowUnreachable && !ri.Caps.Reachable {
		return false
	}
	if !ri.Caps.Class.AtLeast(s.MinClass) {
		return false
	}
	return true
}

// weight returns the selection weight for an eligible record: bandwidth
// class index squared, so O/P/X peers carry most tunnels, as the paper's
// profiling citation (zzz & Schimmer 2009) describes.
func (s Selector) weight(ri *netdb.RouterInfo) int64 {
	idx := int64(ri.Caps.Class.Index() + 1)
	return idx * idx
}

// Errors from hop selection and tunnel building.
var (
	ErrNotEnoughPeers = errors.New("tunnel: not enough eligible peers")
	ErrBuildFailed    = errors.New("tunnel: build failed")
)

// HopPool is a candidate set prepared for hop selection: the records that
// pass a Selector's policy, as an identity column beside the running sum
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
// order. A pool holds one entry per identity: of several records with the
// same identity the first eligible one counts.
func (s Selector) Prepare(candidates []*netdb.RouterInfo) *HopPool {
	eligible := 0
	for _, ri := range candidates {
		if s.Eligible(ri) {
			eligible++
		}
	}
	p := &HopPool{
		ids:    make([]netdb.Hash, 0, eligible),
		prefix: make([]int64, 0, eligible),
		index:  make(map[netdb.Hash]int32, eligible),
	}
	total := int64(0)
	for _, ri := range candidates {
		if !s.Eligible(ri) {
			continue
		}
		if _, dup := p.index[ri.Identity]; dup {
			continue
		}
		total += s.weight(ri)
		p.index[ri.Identity] = int32(len(p.ids))
		p.ids = append(p.ids, ri.Identity)
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

// SelectHops draws n distinct hops from candidates, excluding any hash in
// exclude: Prepare followed by one Select. A caller that draws more than
// once from the same candidates should keep the pool.
func (s Selector) SelectHops(candidates []*netdb.RouterInfo, n int, exclude map[netdb.Hash]bool, rng *rand.Rand) ([]netdb.Hash, error) {
	return s.Prepare(candidates).Select(n, exclude, rng)
}

// BuildResult reports a tunnel construction attempt.
type BuildResult struct {
	Tunnel *Tunnel
	// OK is true when every hop accepted the build request.
	OK bool
	// FailedHop is the index of the first hop that could not be contacted
	// (meaningful only when !OK).
	FailedHop int
	// Elapsed is the build latency: per-hop round trips up to and
	// including the failing hop.
	Elapsed time.Duration
}

// Builder constructs tunnels through a connectivity oracle.
type Builder struct {
	// Reachable reports whether a build message can reach hop h. nil
	// means all hops are reachable. The censorship experiments plug the
	// null-routing firewall in here.
	Reachable func(h netdb.Hash) bool
	// HopRTT models the per-hop round-trip cost during construction. nil
	// means a constant DefaultHopRTT.
	HopRTT func(h netdb.Hash) time.Duration
	// Timeout is charged when a hop is unreachable (the build request is
	// silently dropped by a null-routing censor and the client waits).
	// Zero means 10 seconds, the Java router's per-hop build timeout.
	Timeout time.Duration

	nextID uint32
}

func (b *Builder) timeout() time.Duration {
	if b.Timeout <= 0 {
		return 10 * time.Second
	}
	return b.Timeout
}

func (b *Builder) rtt(h netdb.Hash) time.Duration {
	if b.HopRTT != nil {
		return b.HopRTT(h)
	}
	return DefaultHopRTT
}

// Build attempts to construct a tunnel through hops at time now: the
// build request with its per-hop encrypted records travels hop to hop,
// each reachable hop opens its own record and accepts, and the reply
// returns to the creator.
func (b *Builder) Build(owner netdb.Hash, dir Direction, hops []netdb.Hash, now time.Time) BuildResult {
	b.nextID++
	t := &Tunnel{
		ID:        b.nextID,
		Direction: dir,
		Owner:     owner,
		Hops:      append([]netdb.Hash(nil), hops...),
		Built:     now,
		Expires:   now.Add(Lifetime),
	}
	req, err := NewBuildRequest(t, owner)
	if err != nil {
		return BuildResult{OK: false, FailedHop: 0}
	}
	reply := NewBuildReply(req)
	var elapsed time.Duration
	for i, h := range hops {
		if b.Reachable != nil && !b.Reachable(h) {
			// A null-routed hop never sees the request; the creator waits
			// out the build timeout.
			elapsed += b.timeout()
			return BuildResult{OK: false, FailedHop: i, Elapsed: elapsed}
		}
		rec, err := req.OpenRecord(h)
		if err != nil || rec.ReceiveTunnelID != t.ID+uint32(i) {
			return BuildResult{OK: false, FailedHop: i, Elapsed: elapsed}
		}
		if err := reply.Respond(i, h, true); err != nil {
			return BuildResult{OK: false, FailedHop: i, Elapsed: elapsed}
		}
		elapsed += b.rtt(h)
	}
	if ok, err := reply.Accepted(hops); err != nil || !ok {
		return BuildResult{OK: false, FailedHop: len(hops) - 1, Elapsed: elapsed}
	}
	return BuildResult{Tunnel: t, OK: true, Elapsed: elapsed}
}

// Pool owns a router's current tunnels and rebuilds them as they expire.
type Pool struct {
	Owner    netdb.Hash
	Selector Selector
	Builder  *Builder
	HopCount int

	inbound  *Tunnel
	outbound *Tunnel
}

// NewPool returns a pool with the given policy. hopCount defaults to
// DefaultHops when zero.
func NewPool(owner netdb.Hash, sel Selector, b *Builder, hopCount int) *Pool {
	if hopCount <= 0 {
		hopCount = DefaultHops
	}
	return &Pool{Owner: owner, Selector: sel, Builder: b, HopCount: hopCount}
}

// Tunnels returns the current inbound and outbound tunnels (either may be
// nil before the first successful Maintain).
func (p *Pool) Tunnels() (in, out *Tunnel) { return p.inbound, p.outbound }

// Maintain ensures live inbound and outbound tunnels exist at now, building
// replacements from candidates as needed. It returns the total build
// latency incurred and an error if construction failed.
func (p *Pool) Maintain(candidates []*netdb.RouterInfo, now time.Time, rng *rand.Rand) (time.Duration, error) {
	var total time.Duration
	exclude := map[netdb.Hash]bool{p.Owner: true}
	for _, slot := range []struct {
		dir Direction
		t   **Tunnel
	}{{Inbound, &p.inbound}, {Outbound, &p.outbound}} {
		if *slot.t != nil && (*slot.t).Live(now) {
			continue
		}
		hops, err := p.Selector.SelectHops(candidates, p.HopCount, exclude, rng)
		if err != nil {
			return total, err
		}
		res := p.Builder.Build(p.Owner, slot.dir, hops, now)
		total += res.Elapsed
		if !res.OK {
			return total, fmt.Errorf("%w: %s hop %d unreachable", ErrBuildFailed, slot.dir, res.FailedHop)
		}
		*slot.t = res.Tunnel
	}
	return total, nil
}
