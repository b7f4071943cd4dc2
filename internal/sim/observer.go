package sim

import (
	"math"
	"math/rand/v2"
	"slices"
	"sync"

	"github.com/i2pstudy/i2pstudy/internal/netdb"
)

// ObservationParams are the constants of the observation model. An
// observer o sees peer p on a given day with probability
//
//	P(o sees p) = gamma_o(p) * exposure_p
//
// where exposure_p is the peer's intrinsic per-day visibility (a property
// of how actively it publishes and participates) and gamma_o(p) composes
// the four §4.2 learning channels:
//
//  1. reseed bootstrap (first day only, handled by the harness),
//  2. exploratory DatabaseLookup traffic — available to every observer
//     regardless of bandwidth (DLMCoverage),
//  3. tunnel participation — grows with the observer's shared bandwidth
//     and saturates (TunnelCoverageMax, TunnelSatKBps), discounted for
//     floodfills whose bandwidth is partly consumed by netDb duties
//     (FFTunnelPenalty), and weighted by how the peer touches tunnels
//     (relay hop, tunnel creator, firewalled creator, hidden creator),
//  4. DatabaseStore/flooding traffic — floodfill observers only
//     (StoreCoverage).
//
// Channels compose as independent detection opportunities:
// gamma = 1 - (1-dlm)(1-store)(1-tunnel*affinity).
type ObservationParams struct {
	DLMCoverage       float64
	StoreCoverage     float64
	TunnelCoverageMax float64
	TunnelSatKBps     float64
	FFTunnelPenalty   float64

	RelayAffinity      float64 // tunnel-eligible peers (reachable, >= M)
	CreatorAffinity    float64 // known-IP peers below relay grade
	FirewalledAffinity float64 // firewalled and toggling peers
	HiddenAffinity     float64 // hidden peers
}

// DefaultObservation returns constants calibrated against Figures 2–4; the
// figure-02, -03 and -04 rows of core's expectation table
// (core.Experiment.Expectations) bound what they produce.
func DefaultObservation() ObservationParams {
	return ObservationParams{
		DLMCoverage:       0.66,
		StoreCoverage:     0.35,
		TunnelCoverageMax: 1.0,
		TunnelSatKBps:     1200,
		FFTunnelPenalty:   0.50,

		RelayAffinity:      1.0,
		CreatorAffinity:    0.80,
		FirewalledAffinity: 0.60,
		HiddenAffinity:     0.25,
	}
}

// ObserverConfig describes one measurement router, mirroring the knobs the
// paper tuned in Section 4: operating mode and shared bandwidth.
type ObserverConfig struct {
	// Name labels the observer in reports.
	Name string
	// Floodfill selects floodfill mode.
	Floodfill bool
	// SharedKBps is the configured shared bandwidth in KB/s (the paper
	// swept 128 KB/s to 8 MB/s; the bloom filter caps at 8 MB/s).
	SharedKBps int
	// Seed decorrelates this observer's random draws from others'.
	Seed uint64
}

// MaxSharedKBps is the 8 MB/s cap imposed by the router's built-in bloom
// filter (Section 4.1).
const MaxSharedKBps = 8192

// Observer is an instantiated measurement router on a network.
//
// Every observation method derives a private RNG from (Seed, day), so
// calls are idempotent, days can be visited in any order, and one Observer
// may be driven from many goroutines at once (the parallel campaign engine
// and the censor sweep engine do exactly that). An Observer holds nothing
// mutable and memoizes nothing: every call redraws. DrawDay is the draw
// itself, over every active peer of a day; DrawDayAt is its subset form,
// held to it draw for draw. A caller that revisits a day keeps its own
// product of either (a censor's monitoring router keeps address IDs, the
// victim one netDb view per day, CaptureDay sightings).
type Observer struct {
	Cfg ObserverConfig
	net *Network

	// gamma[class] is gamma_o for a peer of that affinity class: the
	// fraction of the peer's exposure the observer converts into an
	// observation each day. It is fixed at construction, so the daily
	// draw indexes it per peer instead of redoing the math.Exp behind it.
	gamma [affinityClasses]float64
}

// NewObserver attaches an observer to the network. Bandwidth is clamped to
// MaxSharedKBps.
func (n *Network) NewObserver(cfg ObserverConfig) *Observer {
	if cfg.SharedKBps <= 0 {
		cfg.SharedKBps = 128
	}
	if cfg.SharedKBps > MaxSharedKBps {
		cfg.SharedKBps = MaxSharedKBps
	}
	o := &Observer{Cfg: cfg, net: n}
	for class := range o.gamma {
		o.gamma[class] = o.classCoverage(class)
	}
	return o
}

// tunnelFactor returns the tunnel-channel intensity for the observer's
// bandwidth and mode.
func (o *Observer) tunnelFactor() float64 {
	p := o.net.obs
	f := p.TunnelCoverageMax * (1 - math.Exp(-float64(o.Cfg.SharedKBps)/p.TunnelSatKBps))
	if o.Cfg.Floodfill {
		f *= p.FFTunnelPenalty
	}
	return f
}

// The tunnel-affinity classes a peer can fall in; see affinityClass.
const (
	affinityRelay = iota
	affinityCreator
	affinityFirewalled
	affinityHidden
	affinityClasses
)

// affinityClass returns which of the four tunnel-channel weights applies
// to the peer.
func (p *Peer) affinityClass() int {
	switch {
	case p.TunnelEligible():
		return affinityRelay
	case p.Status == StatusKnownIP:
		return affinityCreator
	case p.Status == StatusFirewalled || p.Status == StatusToggling:
		return affinityFirewalled
	default:
		return affinityHidden
	}
}

// classCoverage returns gamma_o for one affinity class, the entry of the
// per-observer table the daily draw reads.
func (o *Observer) classCoverage(class int) float64 {
	params := o.net.obs
	affinity := [affinityClasses]float64{
		affinityRelay:      params.RelayAffinity,
		affinityCreator:    params.CreatorAffinity,
		affinityFirewalled: params.FirewalledAffinity,
		affinityHidden:     params.HiddenAffinity,
	}[class]
	dlm := params.DLMCoverage
	store := 0.0
	if o.Cfg.Floodfill {
		store = params.StoreCoverage
	}
	tun := o.tunnelFactor() * affinity
	gamma := 1 - (1-dlm)*(1-store)*(1-tun)
	if gamma < 0 {
		return 0
	}
	if gamma > 1 {
		return 1
	}
	return gamma
}

// dayPCG returns the deterministic generator for (observer, day): repeated
// calls to ObserveDay are idempotent and days can be visited in any order.
func (o *Observer) dayPCG(day int) *rand.PCG {
	s := o.dayState(day)
	return rand.NewPCG(s.hi, s.lo)
}

// dayState is the state dayPCG starts from.
func (o *Observer) dayState(day int) pcgState {
	return pcgState{o.Cfg.Seed ^ 0x9E3779B97F4A7C15, uint64(day)*0x2545F4914F6CDD1D + 1}
}

// ObserveDay returns the indexes of peers the observer sees on the given
// study day, in ActivePeers(day) order: DrawDay's positions resolved
// to peer indexes, in a slice of exactly the sightings. The result is
// deterministic for a given (seed, day); every call redraws.
func (o *Observer) ObserveDay(day int) []int {
	scratch := posScratch.Get().(*[]int32)
	pos := o.DrawDay(day, (*scratch)[:0])
	var out []int
	if len(pos) > 0 {
		active := o.net.ActivePeers(day)
		out = make([]int, len(pos))
		for i, j := range pos {
			out[i] = int(active[j])
		}
	}
	*scratch = pos
	posScratch.Put(scratch)
	return out
}

// posScratch recycles the position buffers ObserveDay and capture draw
// into: sync.Pool keeps them per P, so each worker reuses its own.
var posScratch = sync.Pool{New: func() any { return new([]int32) }}

// DrawDay performs the (seed, day)-deterministic observation draw and
// appends to out, ascending, the positions in ActivePeers(day) of the
// peers the observer sees; a day outside the study appends nothing. It is
// the full-day kernel, one draw per active peer in order: ObserveDay
// resolves its positions to peer indexes, CaptureDay turns them into
// sightings, and the victim's netDb view and the population figures'
// fleet counts map them themselves. A caller that needs only some
// positions (a censor's router, which can blacklist only the peers that
// publish an address) draws through DrawDayAt instead. Nothing is
// memoized here: every call redraws.
func (o *Observer) DrawDay(day int, out []int32) []int32 {
	return o.drawDay(day, o.dayPCG(day), out)
}

// DrawDayAt is DrawDay over a subset of the day's positions: at lists
// positions in ActivePeers(day), strictly ascending, and DrawDayAt
// appends to out, ascending, the indexes k into at of the peers the
// observer sees. The draw at position at[k] is bit for bit the one
// DrawDay makes there, so DrawDayAt keeps k exactly when DrawDay keeps
// at[k]. The generator jumps over the positions between (pcgState.jump),
// so the cost follows len(at), not the day's active peers; over every
// position it is slower than DrawDay's stepping loop, which full-day
// callers keep.
func (o *Observer) DrawDayAt(day int, at, out []int32) []int32 {
	active := o.net.ActivePeers(day)
	n := len(out)
	out = slices.Grow(out, len(at))[:n+len(at)]
	class, exposure := o.net.drawClass, o.net.drawExposure
	s, prev := o.dayState(day), int32(-1)
	for k, j := range at {
		g := uint(j - prev)
		prev = j
		for ; g > maxPCGJump; g -= maxPCGJump {
			s = s.jump(maxPCGJump)
		}
		s = s.jump(g)
		idx := active[j]
		out[n] = int32(k)
		keep := 0
		if float64(s.dxsm()<<11>>11)/(1<<53) < o.gamma[class[idx]]*exposure[idx] {
			keep = 1
		}
		n += keep
	}
	return out[:n]
}

// drawDay is DrawDay over a caller-held generator, so a test can read
// where the draw left it. One draw per active peer, seen or not. Rand's
// Float64 is float64(Uint64()<<11>>11) / (1<<53); drawing it from the
// concrete PCG saves an interface call per peer. The keep is branch-free
// — every position is stored and the comparison advances the cursor — as
// a draw is taken about three times in five and cannot be predicted.
func (o *Observer) drawDay(day int, pcg *rand.PCG, out []int32) []int32 {
	active := o.net.ActivePeers(day)
	n := len(out)
	out = slices.Grow(out, len(active))[:n+len(active)]
	class, exposure := o.net.drawClass, o.net.drawExposure
	for j, idx := range active {
		out[n] = int32(j)
		keep := 0
		if float64(pcg.Uint64()<<11>>11)/(1<<53) < o.gamma[class[idx]]*exposure[idx] {
			keep = 1
		}
		n += keep
	}
	return out[:n]
}

// ClaimSet is a bitset over peer index marking the peers some earlier
// observer of the day already saw: the campaign's capture claims a peer
// to keep its first sighting, and the population figures claim to count
// a fleet's union.
type ClaimSet []uint64

// NewClaimSet returns an empty set sized for the network's peers.
func (n *Network) NewClaimSet() ClaimSet { return make(ClaimSet, (len(n.Peers)+63)/64) }

// Claim marks peer idx and reports whether it was unmarked until now.
func (c ClaimSet) Claim(idx int) bool {
	word, bit := idx>>6, uint64(1)<<(idx&63)
	if c[word]&bit != 0 {
		return false
	}
	c[word] |= bit
	return true
}

// CaptureDay appends to out the sightings the observer captured on the
// given day for peers not yet in claimed, and claims them. Every observer
// stamps Published with the day's time, so across a fleet walked in order
// the first observer to see a peer holds the record a newest-wins merge
// keeps; CaptureDay keeps only those. A peer already claimed still draws
// from the materialization stream and discards the draw, so the records
// Network.RouterInfo builds from the sightings are bit-for-bit the ones
// CollectDay returns for the same peers. The day is drawn through DrawDay
// into pooled scratch, never through ObserveDay, so with out's capacity
// warm capturing allocates nothing.
func (o *Observer) CaptureDay(day int, claimed ClaimSet, out []Sighting) []Sighting {
	return o.capture(day, o.materializePCG(day), claimed, out)
}

// materializePCG returns the (observer, day) materialization stream,
// independent of the observation draw's.
func (o *Observer) materializePCG(day int) *rand.PCG { return o.dayPCG(day + 1<<20) }

// capture is CaptureDay over a caller-held stream, so a test can read
// where the walk left it.
func (o *Observer) capture(day int, pcg *rand.PCG, claimed ClaimSet, out []Sighting) []Sighting {
	scratch := posScratch.Get().(*[]int32)
	pos := o.DrawDay(day, (*scratch)[:0])
	active, class, pool := o.net.ActivePeers(day), o.net.drawClass, o.net.introducerPool(day)
	// Room for every sighting at once: a fresh out is sized exactly. No
	// more than the day's active peers can be claimed, so an out already
	// holding room for all of them (the campaign's scratch) never grows.
	out = slices.Grow(out, max(min(len(pos), len(active)-len(out)), 0))
	for _, j := range pos {
		idx := active[j]
		d := drawInfo(class[idx], pool, pcg)
		if claimed.Claim(int(idx)) {
			out = append(out, Sighting{Peer: idx, Draw: d})
		}
	}
	*scratch = pos
	posScratch.Put(scratch)
	return out
}

// CollectDay materializes the RouterInfos the observer captured on the
// given day — what the paper's harness read from the netDb directory on
// its hourly scans before the daily cleanup (Section 4.3). It draws the
// day once, through CaptureDay, and sizes its result from the capture.
func (o *Observer) CollectDay(day int) []*netdb.RouterInfo {
	seen := o.CaptureDay(day, o.net.NewClaimSet(), nil)
	out := make([]*netdb.RouterInfo, len(seen))
	for i, s := range seen {
		out[i] = o.net.RouterInfo(day, s)
	}
	return out
}
