// Package sim builds and replays a synthetic I2P network calibrated to the
// paper's measured marginals. It is the offline substitute for the live
// network: ~32K daily peers whose capacity flags, address
// publication behaviour, churn, IP rotation and geographic mix follow
// Sections 5.1–5.3, plus an observation model implementing the four
// RouterInfo-propagation mechanisms of Section 4.2 through which observer
// routers — and censors — learn about peers.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"net/netip"
	"slices"
	"sync"
	"time"

	"github.com/i2pstudy/i2pstudy/internal/churn"
	"github.com/i2pstudy/i2pstudy/internal/geo"
	"github.com/i2pstudy/i2pstudy/internal/netdb"
)

// StudyStart is the first day of the paper's measurement campaign
// (February 1, 2018, UTC).
var StudyStart = time.Date(2018, 2, 1, 0, 0, 0, 0, time.UTC)

// Config parameterizes a synthetic network.
type Config struct {
	// Seed drives every random choice; equal seeds give identical
	// networks.
	Seed uint64
	// Days is the study horizon (the paper ran for ~90 days).
	Days int
	// TargetDailyPeers calibrates the arrival rate so that the expected
	// number of distinct peers seen per day matches (the paper: ~30.5K).
	// Tests and benches use scaled-down values; all shape statistics are
	// scale-invariant.
	TargetDailyPeers int
	// Churn overrides the churn model configuration (zero value means
	// churn.DefaultConfig).
	Churn *churn.Config
	// Observation overrides the observation constants (zero value means
	// DefaultObservation).
	Observation *ObservationParams
}

// PaperDailyPeers is the paper's daily population, the TargetDailyPeers
// of a paper-scale network and the unit of every -scale flag.
const PaperDailyPeers = 30500

// ScaledDailyPeers returns the TargetDailyPeers of a network at scale
// times the paper's population: the one conversion of every -scale flag.
// A NaN, infinite or out-of-range float converts to an
// implementation-defined int, so a scale that is not finite and > 0, or
// whose count overflows an int32, is refused before the conversion, with
// an error naming -scale.
func ScaledDailyPeers(scale float64) (int, error) {
	peers := scale * PaperDailyPeers
	if !(peers > 0 && peers <= math.MaxInt32) {
		return 0, fmt.Errorf("-scale %v: want a finite scale > 0 giving at most %d daily peers", scale, math.MaxInt32)
	}
	return int(peers), nil
}

// Status mix (Section 5.1 / Figure 6): per-day ~30.5K peers split into
// ~15.5K known-IP, ~11.4K firewalled-only, ~1.4K hidden-only and ~2.6K
// toggling between the last two.
const (
	fracKnownIP    = 0.49
	fracFirewalled = 0.375
	fracHiddenOnly = 0.046
	// remainder: toggling
)

// Primary bandwidth-class probabilities, normalized from the paper's
// Table 1 "Total" column.
var classProbs = []struct {
	class netdb.BandwidthClass
	p     float64
}{
	{netdb.ClassL, 0.5925},
	{netdb.ClassN, 0.2529},
	{netdb.ClassP, 0.0600},
	{netdb.ClassX, 0.0490},
	{netdb.ClassO, 0.0244},
	{netdb.ClassM, 0.0111},
	{netdb.ClassK, 0.0101},
}

// Per-class probability that a peer runs in floodfill mode, shaped so the
// floodfill population (~8.8% of peers) has Table 1's floodfill column:
// N-class dominant, with a ~29% minority of manually enabled K/L/M
// floodfills. Floodfill mode requires a published address, so these
// probabilities apply to known-IP reachable peers only (and are therefore
// roughly double the whole-network rates).
var floodfillProbByClass = map[netdb.BandwidthClass]float64{
	netdb.ClassK: 0.015,
	netdb.ClassL: 0.069,
	netdb.ClassM: 0.30,
	netdb.ClassN: 0.38,
	netdb.ClassO: 0.33,
	netdb.ClassP: 0.42,
	netdb.ClassX: 0.43,
}

// legacyOProb is the probability that a P- or X-class router also
// publishes the backwards-compatible O flag.
const legacyOProb = 0.20

// Exposure tiers (see Observer): the well-exposed fraction is visible to
// any serious observer every day; the weak tier produces the long tail of
// Figure 4.
const (
	wellExposedFrac = 0.45
	wellExposedMin  = 0.90
	weakExposureLo  = 0.05
	weakExposureHi  = 0.45
	stealthFrac     = 0.06 // of weak peers: nearly invisible
	stealthExposure = 0.006
)

// Network is a fully materialized synthetic I2P network.
//
// Concurrency contract: a Network is immutable once New returns — every
// method is a pure read and safe for unbounded concurrent use, and
// NewObserver only wraps a pointer to the network. The measurement engine
// (measure.Campaign with Workers > 1, core.Study.RunAll) relies on this:
// per-(observer, day) captures run on arbitrary goroutines with no
// locking. Everything engines share that is a pure function of the
// network — the address table (AddrTable) and censor's address index over
// it — is network-owned: it hangs off Derive, is built on first use and
// is collected with the network. Any future mutating API must
// either copy-on-write or take a network-level lock, must epoch the
// derived slot, and must update this comment.
type Network struct {
	cfg   Config
	model *churn.Model
	geo   *geo.DB

	// Peers holds one row per peer, indexed by peer: one allocation of
	// pointer-free rows. words is the slab their windows are carved from.
	Peers []Peer
	words wordSlab
	// activeByDay[d] lists indexes of peers online on study day d. The
	// days are windows of one flat column, as are the introducer pools'
	// peers and addresses: none holds a pointer, so the GC never scans
	// them.
	activeByDay [][]int32
	// introducersByDay[d] caches the known-IP reachable peers available
	// as introducers on day d.
	introducersByDay []introducerPool
	// drawClass[i] is Peers[i].affinityClass() and drawExposure[i] the
	// peer's base per-day observability in [0, 1], the two per-peer inputs
	// of the observation draw, as dense columns: the draw visits every
	// active peer of a day for every observer and reads these instead of
	// the scattered Peers. The exposure is kept nowhere else.
	drawClass    []uint8
	drawExposure []float64

	obs ObservationParams

	// derived is Derive's slot: key -> *derivedCell.
	derived sync.Map
}

// derivedCell is one Derive key's build-once value.
type derivedCell struct {
	once sync.Once
	v    any
}

// Derive returns the value build computes for key on n, running build at
// most once per (network, key): concurrent first callers share the one
// run, distinct keys never wait on each other, and a build may derive
// other keys (but not its own). The value lives exactly as long as the
// network does. Keys are unexported zero-size struct types owned by the
// calling package (the context-key idiom), and every caller of a key
// must pass an equivalent build — the value must be a pure function of
// the immutable network, and is shared, so treat it as read-only.
func Derive[T any](n *Network, key any, build func() T) T {
	c, ok := n.derived.Load(key)
	if !ok {
		c, _ = n.derived.LoadOrStore(key, new(derivedCell))
	}
	cell := c.(*derivedCell)
	cell.once.Do(func() { cell.v = build() })
	return cell.v.(T)
}

// introducerPool is one day's candidate introducers, by peer index, each
// with the IPv4 it publishes that day beside it, so an introducer draw
// reads the address without walking the picked peer's schedule.
type introducerPool struct {
	peers []int32   // indexes into Network.Peers
	v4    [][4]byte // v4[i] is peers[i]'s IPv4 on the day, zero for none
}

// New builds a network. Construction cost is O(peers x days).
func New(cfg Config) (*Network, error) {
	if cfg.Days <= 0 {
		return nil, fmt.Errorf("sim: Days must be positive, got %d", cfg.Days)
	}
	if cfg.TargetDailyPeers <= 0 {
		return nil, fmt.Errorf("sim: TargetDailyPeers must be positive, got %d", cfg.TargetDailyPeers)
	}
	ccfg := churn.DefaultConfig()
	if cfg.Churn != nil {
		ccfg = *cfg.Churn
	}
	model, err := churn.NewModel(ccfg)
	if err != nil {
		return nil, err
	}
	n := &Network{
		cfg:   cfg,
		model: model,
		geo:   geo.NewDB(),
		obs:   DefaultObservation(),
	}
	if cfg.Observation != nil {
		n.obs = *cfg.Observation
	}
	b, err := n.populate()
	if err != nil {
		return nil, err
	}
	n.index(b)
	return n, nil
}

// GeoDB returns the network's geolocation database.
func (n *Network) GeoDB() *geo.DB { return n.geo }

// Days returns the study horizon.
func (n *Network) Days() int { return n.cfg.Days }

// Config returns the network's configuration.
func (n *Network) Config() Config { return n.cfg }

// DayTime returns the wall-clock time corresponding to noon of a study day.
func (n *Network) DayTime(day int) time.Time {
	return StudyStart.Add(time.Duration(day)*24*time.Hour + 12*time.Hour)
}

// survival returns P(span > t days) under the churn mixture.
func survival(cfg churn.Config, t float64) float64 {
	s := func(floor, mean float64) float64 {
		if t < floor {
			return 1
		}
		return math.Exp(-(t - floor) / mean)
	}
	return cfg.StableFrac*s(cfg.StableSpanFloor, cfg.StableSpanMean) +
		cfg.RegularFrac*s(cfg.RegularSpanFloor, cfg.RegularSpanMean) +
		cfg.TransientFrac*s(cfg.TransientSpanFloor, cfg.TransientSpanMean)
}

// residualProfile samples a profile conditioned on span > age, shifted so
// only the residual span remains (memorylessness of the exponential tail).
func residualProfile(m *churn.Model, age int, rng *rand.Rand) churn.Profile {
	cfg := m.Config()
	type cp struct {
		class       churn.Class
		frac        float64
		floor, mean float64
		onOn, offOn float64
	}
	classes := []cp{
		{churn.ClassStable, cfg.StableFrac, cfg.StableSpanFloor, cfg.StableSpanMean, cfg.StableOnOn, cfg.StableOffOn},
		{churn.ClassRegular, cfg.RegularFrac, cfg.RegularSpanFloor, cfg.RegularSpanMean, cfg.RegularOnOn, cfg.RegularOffOn},
		{churn.ClassTransient, cfg.TransientFrac, cfg.TransientSpanFloor, cfg.TransientSpanMean, cfg.TransientOnOn, cfg.TransientOffOn},
	}
	// P(class | span > age) ∝ frac_c * S_c(age).
	var weights [3]float64
	total := 0.0
	for i, c := range classes {
		s := 1.0
		if float64(age) >= c.floor {
			s = math.Exp(-(float64(age) - c.floor) / c.mean)
		}
		weights[i] = c.frac * s
		total += weights[i]
	}
	x := rng.Float64() * total
	sel := classes[len(classes)-1]
	for i, c := range classes {
		x -= weights[i]
		if x <= 0 {
			sel = c
			break
		}
	}
	// Residual span: if the peer is younger than the floor, the remaining
	// floor plus a fresh exponential; otherwise memoryless exponential.
	var residual int
	if float64(age) < sel.floor {
		residual = int(sel.floor) - age + int(rng.ExpFloat64()*sel.mean)
	} else {
		residual = 1 + int(rng.ExpFloat64()*sel.mean)
	}
	if residual < 1 {
		residual = 1
	}
	return churn.Profile{Class: sel.class, SpanDays: int32(residual), OnOn: sel.onOn, OffOn: sel.offOn}
}

// The word slab's chunks are chunkWords words, and a window's position
// is its chunk's number above windowBits and its offset in the chunk
// below them.
const (
	windowBits = 12
	chunkWords = 1 << windowBits
)

// wordSlab hands out the peers' windows from chunks of chunkWords words
// (one larger chunk for a window that needs more), so the windows cost an
// allocation per chunk, not one per peer. Chunks rather than one slab
// per network keep every allocation small enough for the heap to place
// without growing. A window starts in the first chunkWords words of its
// chunk, so its offset fits in windowBits.
type wordSlab struct {
	chunks [][]uint32
	used   int // words of the last chunk carved off
}

// room returns an empty slice that can take n appends without leaving
// the slab; keep then carves what was appended off it.
func (s *wordSlab) room(n int) []uint32 {
	if last := len(s.chunks) - 1; last < 0 || s.used+n > len(s.chunks[last]) || s.used >= chunkWords {
		s.chunks = append(s.chunks, make([]uint32, max(n, chunkWords)))
		s.used = 0
	}
	return s.chunks[len(s.chunks)-1][s.used:s.used]
}

// keep carves w, an append onto room's slice that stayed within its
// room, off the slab and returns its position.
func (s *wordSlab) keep(w []uint32) uint32 {
	pos := uint32(len(s.chunks)-1)<<windowBits | uint32(s.used)
	s.used += len(w)
	return pos
}

// at returns the words of the slab from position pos to the end of its
// chunk.
func (s *wordSlab) at(pos uint32) []uint32 {
	return s.chunks[pos>>windowBits][pos&(chunkWords-1):]
}

// builder is populate's scratch: the peer being drawn, and the per-day
// counts index sizes its slices by. It lives only while New runs.
type builder struct {
	rng *rand.Rand
	// presence, pool, sched and rots hold the peer being drawn: its
	// presence chain, its AS pool (with each AS's record beside it in
	// poolAS), its address schedule and its same-day rotations. carve
	// packs them into the peer's window.
	presence []bool
	pool     []uint32
	poolAS   []*geo.AS
	sched    []ipAssignment
	rots     []rotation
	// active[d] and introducers[d] count the peers online on day d and
	// those of them that are introducers.
	active, introducers []int
}

// carve packs what b holds for p — its presence chain as a bitmap, its AS
// pool, its schedule and its same-day rotations, in that order — into one
// window carved from words, and records each section's count.
func (b *builder) carve(p *Peer, words *wordSlab) {
	days := bitmapWords(len(b.presence))
	w := words.room(days + len(b.pool) + scheduleWords*len(b.sched) + rotationWords*len(b.rots))[:days]
	clear(w)
	for i, on := range b.presence {
		if on {
			w[i>>5] |= 1 << (i & 31)
		}
	}
	w = append(w, b.pool...)
	w = append(w, asWords(b.sched)...)
	w = append(w, asWords(b.rots)...)
	p.window = words.keep(w)
	p.presenceDays, p.asns = int32(len(b.presence)), uint8(len(b.pool))
	p.segments, p.rotations = int32(len(b.sched)), int32(len(b.rots))
}

// cohorts returns the peers each step of a steady-state draw adds: the
// integer part of rate(i) plus the remainder carried from earlier steps.
// It also returns the rates' sum, which the counts' sum never exceeds;
// the counts mean nothing when an int cannot hold them.
func cohorts(steps int, rate func(int) float64) ([]int, float64) {
	out := make([]int, steps)
	carry, total := 0.0, 0.0
	for i := range out {
		r := rate(i)
		exact := r + carry
		out[i] = int(exact)
		carry = exact - float64(out[i])
		total += r
	}
	return out, total
}

// maxPeers is the most peers a network holds: a peer's index is an
// int32.
const maxPeers = math.MaxInt32

// populate creates the steady-state initial population plus daily
// arrivals, and counts each day's active peers and introducers for
// index. A configuration that needs more than maxPeers peers is refused
// before any peer is allocated.
func (n *Network) populate() (*builder, error) {
	b := &builder{
		rng:         rand.New(rand.NewPCG(n.cfg.Seed, n.cfg.Seed^0xD1B54A32D192ED03)),
		active:      make([]int, n.cfg.Days),
		introducers: make([]int, n.cfg.Days),
	}
	ccfg := n.model.Config()
	// The arrival rate must use the *uncapped* expected active days per
	// peer: the steady-state construction below integrates full spans, so
	// capping at the study horizon would double-count short studies.
	expected := n.model.ExpectedActiveDays(1 << 20)
	lambda := float64(n.cfg.TargetDailyPeers) / expected

	// Steady-state initial population: for each age t, round(lambda *
	// S(t)) peers that arrived t days ago and are still in-span. Then
	// fresh arrivals during the study.
	maxAge := int(ccfg.StableSpanFloor + 8*ccfg.StableSpanMean)
	initial, stayed := cohorts(maxAge+1, func(t int) float64 { return lambda * survival(ccfg, float64(t)) })
	arrivals, arrived := cohorts(n.cfg.Days, func(int) float64 { return lambda })
	if stayed+arrived > maxPeers {
		return nil, fmt.Errorf("sim: TargetDailyPeers %d over %d days needs %.3g peers, more than the %d a network holds",
			n.cfg.TargetDailyPeers, n.cfg.Days, stayed+arrived, maxPeers)
	}
	total := sum(initial) + sum(arrivals)
	n.Peers = make([]Peer, total)
	n.drawClass = make([]uint8, total)
	n.drawExposure = make([]float64, total)

	next := 0
	addPeer := func(profile churn.Profile, startDay int, stationaryStart bool) {
		p := &n.Peers[next]
		*p = Peer{
			Index:    int32(next),
			ID:       netdb.HashFromUint64(n.cfg.Seed<<32 | uint64(next+1)),
			Profile:  profile,
			StartDay: int32(startDay),
		}
		horizon := n.cfg.Days - startDay
		if stationaryStart {
			b.presence = appendPresenceStationary(b.presence[:0], profile, b.rng, horizon)
		} else {
			b.presence = profile.AppendPresence(b.presence[:0], b.rng, horizon)
		}
		n.drawExposure[next] = n.decorate(p, b)
		b.carve(p, &n.words)
		n.drawClass[next] = uint8(p.affinityClass())
		next++

		introducer := p.introducer()
		for i, on := range b.presence {
			if on {
				b.active[startDay+i]++
				if introducer {
					b.introducers[startDay+i]++
				}
			}
		}
	}
	for t, count := range initial {
		for range count {
			addPeer(residualProfile(n.model, t, b.rng), 0, true)
		}
	}
	for d, count := range arrivals {
		for range count {
			addPeer(n.model.SampleProfile(b.rng), d, false)
		}
	}
	return b, nil
}

// appendPresenceStationary is churn.Profile.AppendPresence but with the
// day-0 state drawn from the chain's stationary distribution (for peers
// already in the network at study start) and no forced last day.
func appendPresenceStationary(dst []bool, p churn.Profile, rng *rand.Rand, maxDays int) []bool {
	days := int(p.SpanDays)
	if days > maxDays {
		days = maxDays
	}
	if days <= 0 {
		return dst
	}
	online := rng.Float64() < p.ExpectedDailyPresence()
	dst = append(dst, online)
	for d := 1; d < days; d++ {
		var pOn float64
		if online {
			pOn = p.OnOn
		} else {
			pOn = p.OffOn
		}
		online = rng.Float64() < pOn
		dst = append(dst, online)
	}
	return dst
}

// decorate assigns all non-temporal attributes: status, class and
// geography on p, and the AS pool and IP schedule into b's scratch. It
// returns the peer's exposure, which the row does not hold.
func (n *Network) decorate(p *Peer, b *builder) (exposure float64) {
	rng := b.rng
	// Geography first: censored-country peers default to hidden.
	country := n.geo.SampleCountry(rng)
	p.Country = geo.PackCountry(country.Code)

	censored := country.Censored()
	x := rng.Float64()
	switch {
	case censored:
		// Hidden by default; ~30% of operators disable it for better
		// integration (Section 5.3.2), and some toggle.
		switch {
		case x < 0.55:
			p.Status = StatusHidden
		case x < 0.70:
			p.Status = StatusToggling
		case x < 0.85:
			p.Status = StatusKnownIP
		default:
			p.Status = StatusFirewalled
		}
	case x < fracKnownIP:
		p.Status = StatusKnownIP
	case x < fracKnownIP+fracFirewalled:
		p.Status = StatusFirewalled
	case x < fracKnownIP+fracFirewalled+fracHiddenOnly:
		p.Status = StatusHidden
	default:
		p.Status = StatusToggling
	}

	// Bandwidth class and rate.
	y := rng.Float64()
	p.Class = netdb.ClassL
	for _, cp := range classProbs {
		y -= cp.p
		if y <= 0 {
			p.Class = cp.class
			break
		}
	}
	lo, hi := p.Class.RangeKBps()
	if hi < 0 {
		hi = 8192
	}
	if hi <= lo {
		hi = lo + 1
	}
	p.RateKBps = int32(lo + rng.IntN(hi-lo))
	p.LegacyO = (p.Class == netdb.ClassP || p.Class == netdb.ClassX) && rng.Float64() < legacyOProb

	// Reachability and floodfill mode (known-IP peers only).
	if p.Status == StatusKnownIP {
		p.Reachable = rng.Float64() < 0.97
		if p.Reachable && rng.Float64() < floodfillProbByClass[p.Class] {
			p.Floodfill = true
		}
	}

	// Exposure tier.
	if rng.Float64() < wellExposedFrac {
		p.WellExposed = true
		exposure = wellExposedMin + rng.Float64()*(1-wellExposedMin)
	} else if rng.Float64() < stealthFrac {
		exposure = stealthExposure * (0.5 + rng.Float64())
	} else {
		exposure = weakExposureLo + rng.Float64()*(weakExposureHi-weakExposureLo)
	}
	// Stable, high-bandwidth peers are systematically more visible.
	if p.Profile.Class == churn.ClassStable && !p.WellExposed {
		exposure = math.Min(1, exposure*1.5)
	}

	// IP profile and AS pool.
	p.IPProfile = n.model.SampleIPProfile(rng)
	b.pool, b.poolAS = b.pool[:0], b.poolAS[:0]
	fillPool := func(want int, pick func() *geo.AS) {
		// Bounded attempts: sparse countries may not offer `want`
		// distinct ASes through the home-country picker alone.
		for attempts := 0; len(b.pool) < want && attempts < 40*want; attempts++ {
			if as := pick(); !slices.Contains(b.pool, as.ASN) {
				b.pool, b.poolAS = append(b.pool, as.ASN), append(b.poolAS, as)
			}
		}
	}
	switch p.IPProfile.Mode {
	case churn.IPStatic, churn.IPDynamic:
		fillPool(1, func() *geo.AS { return n.geo.SampleAS(country, rng) })
	case churn.IPMultiAS:
		// Home ISPs, VPN endpoints and occasional foreign networks.
		fillPool(int(p.IPProfile.ASFanout), func() *geo.AS {
			x := rng.Float64()
			switch {
			case x < 0.45:
				return n.geo.SampleAS(country, rng)
			case x < 0.75:
				return n.geo.SampleVPNAS(rng)
			default:
				return n.geo.SampleAS(n.geo.SampleCountry(rng), rng)
			}
		})
	case churn.IPHeavy:
		// VPN/Tor-style: mostly hosting ASes plus random countries.
		fillPool(int(p.IPProfile.ASFanout), func() *geo.AS {
			if rng.Float64() < 0.4 {
				return n.geo.SampleVPNAS(rng)
			}
			return n.geo.SampleAS(n.geo.SampleCountry(rng), rng)
		})
	}
	p.drawIPSchedule(n.cfg.Days, b)
	return exposure
}

// index builds the per-day active sets and introducer pools in one pass
// over the peers. Each is a window of one flat allocation, placed by
// populate's counts and filled through a per-day cursor. An introducer's
// IPv4 comes from a segment cursor that only moves forward as its days
// ascend, as segmentOn's would.
func (n *Network) index(b *builder) {
	days := n.cfg.Days
	active := make([]int32, sum(b.active))
	introducers := sum(b.introducers)
	peers := make([]int32, introducers)
	v4s := make([][4]byte, introducers)
	// at[d] and intro[d] are where day d's next active peer and next
	// introducer go.
	at, intro := make([]int, days), make([]int, days)
	n.activeByDay = make([][]int32, days)
	n.introducersByDay = make([]introducerPool, days)
	a, k := 0, 0
	for d := range days {
		at[d], intro[d] = a, k
		a, k = a+b.active[d], k+b.introducers[d]
		n.activeByDay[d] = active[at[d]:a:a]
		n.introducersByDay[d] = introducerPool{peers: peers[intro[d]:k:k], v4: v4s[intro[d]:k:k]}
	}
	for i := range n.Peers {
		p := &n.Peers[i]
		introducer := p.introducer()
		sched := n.schedule(i)
		idx := p.Index
		seg := 0
		for w, set := range n.presence(i) {
			for ; set != 0; set &= set - 1 {
				d := int(p.StartDay) + w<<5 + bits.TrailingZeros32(set)
				active[at[d]] = idx
				at[d]++
				if !introducer {
					continue
				}
				if len(sched) > 0 {
					for seg+1 < len(sched) && int(sched[seg+1].fromDay) <= d {
						seg++
					}
					v4s[intro[d]] = sched[seg].v4
				}
				peers[intro[d]] = idx
				intro[d]++
			}
		}
	}
}

// sum returns the total of xs.
func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// ActivePeers returns the indexes of peers online on the given study day.
// The returned slice is shared and must not be modified by callers.
func (n *Network) ActivePeers(day int) []int32 {
	if day < 0 || day >= len(n.activeByDay) {
		return nil
	}
	return n.activeByDay[day]
}

// Introducers returns the indexes of the known-IP reachable peers active
// on day, used as the introducer pool for firewalled peers. The returned
// slice is shared and must not be modified by callers.
func (n *Network) Introducers(day int) []int32 {
	return n.introducerPool(day).peers
}

func (n *Network) introducerPool(day int) introducerPool {
	if day < 0 || day >= len(n.introducersByDay) {
		return introducerPool{}
	}
	return n.introducersByDay[day]
}

// RouterInfo materializes the record a sighting stands for: the RouterInfo
// the sighted peer publishes on day, with the port or introducers of its
// draw, its flags from CapsOn's caps and its addresses from AddrOnDay. A
// RouterInfo is built only where records leave the process (snapshot
// files, reseed bundles, the distributors' served records); what reads a
// peer's flags reads CapsOn. s must be a sighting of this network on
// day — CaptureDay's, or a stored one CheckSighting accepted.
func (n *Network) RouterInfo(day int, s Sighting) *netdb.RouterInfo {
	p := &n.Peers[s.Peer]
	ri := &netdb.RouterInfo{
		Identity:  p.ID,
		Published: n.DayTime(day),
		Version:   "0.9.34",
		Caps:      p.caps(),
	}
	switch p.Status {
	case StatusKnownIP:
		v4, v6 := n.AddrOnDay(int(s.Peer), day)
		k := 0
		if v4.IsValid() {
			k += 2
		}
		if v6.IsValid() {
			k++
		}
		if k == 0 {
			break
		}
		ri.Addresses = make([]netdb.RouterAddress, 0, k)
		if v4.IsValid() {
			ri.Addresses = append(ri.Addresses,
				netdb.RouterAddress{Transport: netdb.TransportNTCP, Addr: v4, Port: s.Port},
				netdb.RouterAddress{Transport: netdb.TransportSSU, Addr: v4, Port: s.Port})
		}
		if v6.IsValid() {
			ri.Addresses = append(ri.Addresses,
				netdb.RouterAddress{Transport: netdb.TransportNTCP, Addr: v6, Port: s.Port})
		}
	case StatusFirewalled, StatusToggling:
		// A peer whose every pick was dropped publishes a nil list, as it
		// did when the list was appended to.
		var intros []netdb.Introducer
		if s.N > 0 {
			pool := n.introducerPool(day)
			intros = make([]netdb.Introducer, s.N)
			for i, in := range s.Intros[:s.N] {
				intros[i] = netdb.Introducer{
					Hash: n.Peers[pool.peers[in.Pick]].ID,
					Tag:  in.Tag,
					Addr: netip.AddrFrom4(pool.v4[in.Pick]),
					Port: in.Port,
				}
			}
		}
		ri.Addresses = []netdb.RouterAddress{{Transport: netdb.TransportSSU, Introducers: intros}}
	}
	return ri
}

// CapsOn returns what peer idx's record on day says of it as a tunnel
// hop, without building the record: its capacity flags, and whether it
// publishes an address of its own (RouterInfo.HasKnownIP). RouterInfo
// reads the same flags and addresses.
func (n *Network) CapsOn(idx, day int) (caps netdb.Caps, knownIP bool) {
	p := &n.Peers[idx]
	if p.Status == StatusKnownIP {
		v4, v6 := n.AddrOnDay(idx, day)
		knownIP = v4.IsValid() || v6.IsValid()
	}
	return p.caps(), knownIP
}

// SightingFor draws the sighting of peer idx on day, taking its port or
// introducers from pcg as a capture would. RouterInfo materializes it
// and IntroducerPeers resolves its introducers.
func (n *Network) SightingFor(idx, day int, pcg *rand.PCG) Sighting {
	return Sighting{Peer: int32(idx), Draw: drawInfo(n.drawClass[idx], n.introducerPool(day), pcg)}
}

// IntroducerPeers returns the indexes of the peers that s's record names
// as introducers, in record order: the members of day's introducer pool
// its picks name, which RouterInfo resolves to identities and addresses.
// s must be a sighting of this network on day.
func (n *Network) IntroducerPeers(day int, s Sighting) []int32 {
	pool := n.introducerPool(day)
	out := make([]int32, s.N)
	for i, in := range s.Intros[:s.N] {
		out[i] = pool.peers[in.Pick]
	}
	return out
}

// CheckSighting reports why s cannot be a sighting this network produced
// on day, or nil: the peer exists and is online that day, only a known-IP
// peer carries a port and only a firewalled one introducers, every port
// is one drawPort can return, and every pick names a member of the day's
// introducer pool that publishes an IPv4. It is what stands between a
// sighting read back from disk and RouterInfo's unchecked indexing.
func (n *Network) CheckSighting(day int, s Sighting) error {
	if s.Peer < 0 || int(s.Peer) >= len(n.Peers) {
		return fmt.Errorf("sim: peer index %d outside the network's %d peers", s.Peer, len(n.Peers))
	}
	p := &n.Peers[s.Peer]
	if !n.ActiveOn(int(s.Peer), day) {
		return fmt.Errorf("sim: peer %d is not online on day %d", s.Peer, day)
	}
	if int(s.N) > len(s.Intros) {
		return fmt.Errorf("sim: peer %d: %d introducers drawn, at most %d possible", s.Peer, s.N, len(s.Intros))
	}
	validPort := func(port uint16) bool { return port >= minPort && port <= maxPort }
	switch p.Status {
	case StatusKnownIP:
		if !validPort(s.Port) || s.N != 0 {
			return fmt.Errorf("sim: known-IP peer %d drew port %d and %d introducers", s.Peer, s.Port, s.N)
		}
	case StatusFirewalled, StatusToggling:
		if s.Port != 0 {
			return fmt.Errorf("sim: firewalled peer %d drew port %d", s.Peer, s.Port)
		}
	default:
		if s.Port != 0 || s.N != 0 {
			return fmt.Errorf("sim: hidden peer %d drew port %d and %d introducers", s.Peer, s.Port, s.N)
		}
	}
	pool := n.introducerPool(day)
	for _, in := range s.Intros[:s.N] {
		if int64(in.Pick) >= int64(len(pool.peers)) {
			return fmt.Errorf("sim: peer %d: introducer pick %d past day %d's pool of %d", s.Peer, in.Pick, day, len(pool.peers))
		}
		if pool.v4[in.Pick] == ([4]byte{}) || !validPort(in.Port) {
			return fmt.Errorf("sim: peer %d: introducer pick %d (port %d) is not one the draw keeps", s.Peer, in.Pick, in.Port)
		}
	}
	return nil
}
