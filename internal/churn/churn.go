// Package churn models the temporal behaviour of I2P peers: when a peer is
// present in the network (Section 5.2.1, Figure 7) and how its IP address
// changes over time (Section 5.2.2, Figures 8 and 12).
//
// The paper measured these properties on the live network; this package is
// the generative counterpart. A peer draws a Profile (membership span plus
// an on/off Markov presence process) and an IPProfile (static, dynamic
// same-AS, multi-AS, or heavy VPN-style rotation). The population simulator
// replays these processes day by day, and the measurement pipeline recovers
// the paper's churn statistics from the replay — exercising exactly the
// analysis code a live study would run.
//
// The longevity model is one table, Config.Classes: a class share, a span
// law and a presence chain per Class. Everything that reads the model
// (profiles, presence chains, survival, the arrival-rate estimate) reads
// that table through a Model, so callers hold no class parameter.
//
// Default parameters aim at the paper's headline marginals: ~56%/74% of
// peers present at least 7 days continuously/intermittently, ~20%/31% at
// least 30 days, ~45% of known-IP peers keeping a single address over
// three months, ~0.65% hoarding more than a hundred addresses, >80%
// staying within one autonomous system and ~8.4% hopping across more
// than ten. These are targets, not what a study prints: a 45-day study
// at paper scale measures 13.7%/23.7% at 30 days (the finite window cuts
// long spans short) and 2.9% on more than ten ASes. The bounds the
// study's output is held to are each experiment's Expectations in
// internal/core.
package churn

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Class buckets peers by longevity.
type Class uint8

// Longevity classes.
const (
	// ClassStable peers stay for most of the study and are online nearly
	// every day. They dominate a stable client's netDb and are the peers a
	// censor blocks first (Section 6.2.2).
	ClassStable Class = iota
	// ClassRegular peers stay for weeks with intermittent presence.
	ClassRegular
	// ClassTransient peers churn within days — the paper's potential
	// "bridge" candidates (Section 7.1), since a censor rarely sees them.
	ClassTransient
)

func (c Class) String() string {
	switch c {
	case ClassStable:
		return "stable"
	case ClassRegular:
		return "regular"
	case ClassTransient:
		return "transient"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// ClassParams is one longevity class's row of the model.
type ClassParams struct {
	// Frac is the class's share of the peers; the shares sum to about 1.
	Frac float64
	// SpanFloor and SpanMean shape the membership span in days: Floor +
	// Exp(Mean). Stable spans are shifted so stable peers cover a large
	// part of any study.
	SpanFloor, SpanMean float64
	// OnOn is P(online tomorrow | online today) of the class's presence
	// Markov chain, OffOn P(online tomorrow | offline today).
	OnOn, OffOn float64
}

// ExpectedDailyPresence returns the long-run fraction of in-span days a
// peer of the class is online (the stationary probability of its Markov
// chain).
func (c ClassParams) ExpectedDailyPresence() float64 {
	// pi = OffOn / (1 - OnOn + OffOn)
	den := 1 - c.OnOn + c.OffOn
	if den <= 0 {
		return 1
	}
	return c.OffOn / den
}

// survival returns P(span > t days) for a peer of the class.
func (c ClassParams) survival(t float64) float64 {
	if t < c.SpanFloor {
		return 1
	}
	return math.Exp(-(t - c.SpanFloor) / c.SpanMean)
}

// appendChain appends days days of the class's presence chain to dst,
// the first day's state being online and each later one drawn from the
// day before.
func (c ClassParams) appendChain(dst []bool, online bool, days int, rng *rand.Rand) []bool {
	dst = append(dst, online)
	for range days - 1 {
		pOn := c.OffOn
		if online {
			pOn = c.OnOn
		}
		online = rng.Float64() < pOn
		dst = append(dst, online)
	}
	return dst
}

// Config holds the model parameters. The zero value is unusable; use
// DefaultConfig.
type Config struct {
	// Classes is the longevity model, one row per Class.
	Classes [3]ClassParams

	// IP rotation mix over known-IP peers. Must sum to approximately 1.
	StaticFrac  float64 // one address for the whole study
	DynamicFrac float64 // rotates within its home AS
	MultiASFrac float64 // rotates across a handful of ASes (2–10)
	HeavyFrac   float64 // VPN/Tor-style: many ASes, potentially >100 IPs

	// DynamicRotationMeanDays is the mean days between address changes
	// for dynamic peers (per-peer means are spread around it).
	DynamicRotationMeanDays float64
	// HeavyRotationMeanDays is the (much shorter) mean for heavy rotators.
	HeavyRotationMeanDays float64

	// IPv6Frac is the fraction of known-IP peers that additionally
	// publish an IPv6 address (Figure 5's IPv6 line sits well below IPv4).
	IPv6Frac float64
}

// DefaultConfig returns the calibrated parameters described in the package
// comment.
func DefaultConfig() Config {
	return Config{
		Classes: [3]ClassParams{
			ClassStable:    {Frac: 0.28, SpanFloor: 20, SpanMean: 50, OnOn: 0.985, OffOn: 0.50},
			ClassRegular:   {Frac: 0.50, SpanFloor: 5, SpanMean: 14, OnOn: 0.93, OffOn: 0.35},
			ClassTransient: {Frac: 0.22, SpanFloor: 1, SpanMean: 3, OnOn: 0.70, OffOn: 0.45},
		},

		StaticFrac:  0.32,
		DynamicFrac: 0.48,
		MultiASFrac: 0.115,
		HeavyFrac:   0.085,

		DynamicRotationMeanDays: 11,
		HeavyRotationMeanDays:   0.75,

		IPv6Frac: 0.27,
	}
}

// Model samples peer temporal profiles. It is stateless apart from its
// configuration; callers supply the RNG so that concurrent simulations can
// use independent deterministic streams.
type Model struct {
	cfg Config
}

// NewModel validates cfg and returns a Model.
func NewModel(cfg Config) (*Model, error) {
	classSum := 0.0
	for _, c := range cfg.Classes {
		classSum += c.Frac
	}
	if math.Abs(classSum-1) > 0.01 {
		return nil, fmt.Errorf("churn: class fractions sum to %.3f, want 1", classSum)
	}
	ipSum := cfg.StaticFrac + cfg.DynamicFrac + cfg.MultiASFrac + cfg.HeavyFrac
	if math.Abs(ipSum-1) > 0.01 {
		return nil, fmt.Errorf("churn: IP-mode fractions sum to %.3f, want 1", ipSum)
	}
	for i, c := range cfg.Classes {
		for _, p := range [...]float64{c.OnOn, c.OffOn} {
			if p < 0 || p > 1 {
				return nil, fmt.Errorf("churn: %v chain probability %v out of range", Class(i), p)
			}
		}
		if c.SpanMean <= 0 {
			return nil, fmt.Errorf("churn: %v span mean must be positive", Class(i))
		}
	}
	if cfg.IPv6Frac < 0 || cfg.IPv6Frac > 1 {
		return nil, fmt.Errorf("churn: IPv6 fraction %v out of range", cfg.IPv6Frac)
	}
	if cfg.DynamicRotationMeanDays <= 0 || cfg.HeavyRotationMeanDays <= 0 {
		return nil, fmt.Errorf("churn: rotation means must be positive")
	}
	return &Model{cfg: cfg}, nil
}

// Profile is a sampled temporal profile for one peer. Its fields are
// narrow because every simulated peer carries one; the presence chain it
// runs is its class's row of the model.
type Profile struct {
	Class Class
	// SpanDays is the number of days between the peer's first and last
	// possible appearance (inclusive); at least 1.
	SpanDays int32
}

// SampleProfile draws a longevity profile.
func (m *Model) SampleProfile(rng *rand.Rand) Profile {
	x := rng.Float64()
	c, below := ClassStable, m.cfg.Classes[ClassStable].Frac
	for int(c) < len(m.cfg.Classes)-1 && x >= below {
		c++
		below += m.cfg.Classes[c].Frac
	}
	p := m.cfg.Classes[c]
	return Profile{Class: c, SpanDays: int32(p.SpanFloor) + int32(rng.ExpFloat64()*p.SpanMean)}
}

// SampleResidualProfile draws the profile of a peer that joined age days
// before the study, conditioned on its span exceeding age, and shifted so
// only the residual span remains (memorylessness of the exponential
// tail).
func (m *Model) SampleResidualProfile(age int, rng *rand.Rand) Profile {
	// P(class | span > age) ∝ Frac_c * S_c(age).
	var weights [len(m.cfg.Classes)]float64
	total := 0.0
	for i, c := range m.cfg.Classes {
		weights[i] = c.Frac * c.survival(float64(age))
		total += weights[i]
	}
	x := rng.Float64() * total
	sel := Class(len(weights) - 1)
	for i, w := range weights {
		x -= w
		if x <= 0 {
			sel = Class(i)
			break
		}
	}
	// Residual span: if the peer is younger than the floor, the remaining
	// floor plus a fresh exponential; otherwise memoryless exponential.
	c := m.cfg.Classes[sel]
	var residual int
	if float64(age) < c.SpanFloor {
		residual = int(c.SpanFloor) - age + int(rng.ExpFloat64()*c.SpanMean)
	} else {
		residual = 1 + int(rng.ExpFloat64()*c.SpanMean)
	}
	return Profile{Class: sel, SpanDays: int32(max(residual, 1))}
}

// Survival returns P(span > t days) under the class mixture.
func (m *Model) Survival(t float64) float64 {
	s := 0.0
	for _, c := range m.cfg.Classes {
		s += c.Frac * c.survival(t)
	}
	return s
}

// MaxAge is the oldest age, in days, a peer present at the start of a
// study is drawn at: eight span means past the floor of the class whose
// spans run longest, where its survival is below e^-8.
func (m *Model) MaxAge() int {
	oldest := 0.0
	for _, c := range m.cfg.Classes {
		oldest = max(oldest, c.SpanFloor+8*c.SpanMean)
	}
	return int(oldest)
}

// AppendPresence replays p's presence chain for up to maxDays days,
// appending one boolean per day to dst and returning the extended slice.
// Day 0 is always online (the peer is first observed when it joins). It
// appends min(SpanDays, maxDays) days, and the last in-span day is forced
// online so that SpanDays is the true first-to-last distance.
func (m *Model) AppendPresence(dst []bool, p Profile, rng *rand.Rand, maxDays int) []bool {
	n := min(int(p.SpanDays), maxDays)
	if n <= 0 {
		return dst
	}
	dst = m.cfg.Classes[p.Class].appendChain(dst, true, n, rng)
	if n == int(p.SpanDays) {
		dst[len(dst)-1] = true
	}
	return dst
}

// AppendStationaryPresence is AppendPresence for a peer already in the
// network when the study starts: its day-0 state is drawn from the
// chain's stationary distribution, and no last day is forced online.
func (m *Model) AppendStationaryPresence(dst []bool, p Profile, rng *rand.Rand, maxDays int) []bool {
	n := min(int(p.SpanDays), maxDays)
	if n <= 0 {
		return dst
	}
	c := m.cfg.Classes[p.Class]
	return c.appendChain(dst, rng.Float64() < c.ExpectedDailyPresence(), n, rng)
}

// ExpectedActiveDays estimates the number of days a freshly sampled peer
// will be observed online within a study of studyDays, used by the
// population simulator to size arrival rates.
func (m *Model) ExpectedActiveDays(studyDays int) float64 {
	total := 0.0
	for _, c := range m.cfg.Classes {
		span := min(c.SpanFloor+c.SpanMean, float64(studyDays))
		total += c.Frac * span * c.ExpectedDailyPresence()
	}
	return total
}

// IPMode labels an IP-rotation behaviour.
type IPMode uint8

// IP rotation modes.
const (
	// IPStatic peers keep one address: the paper's 45% single-IP group.
	IPStatic IPMode = iota
	// IPDynamic peers rotate within their home AS — "these addresses
	// often belong to the same subnet" (Section 5.3.2).
	IPDynamic
	// IPMultiAS peers rotate across a small set of ASes.
	IPMultiAS
	// IPHeavy peers behave like routers behind VPN or Tor exits, hopping
	// across many ASes and accumulating >100 addresses (Section 5.2.2's
	// 460-peer group).
	IPHeavy
)

func (m IPMode) String() string {
	switch m {
	case IPStatic:
		return "static"
	case IPDynamic:
		return "dynamic"
	case IPMultiAS:
		return "multi-as"
	case IPHeavy:
		return "heavy"
	default:
		return fmt.Sprintf("IPMode(%d)", int(m))
	}
}

// IPProfile is a sampled IP-rotation behaviour for one peer. Its fields
// are narrow because every simulated peer carries one.
type IPProfile struct {
	Mode IPMode
	// ASFanout is how many distinct ASes the peer may use (1 for static
	// and dynamic). The paper observed maxima of 39 ASes and 25 countries.
	ASFanout uint8
	// IPv6 marks peers that additionally publish an IPv6 address.
	IPv6 bool
	// RotationMeanDays is this peer's mean days between address changes
	// (unused for IPStatic).
	RotationMeanDays float64
}

// SampleIPProfile draws an IP-rotation profile.
func (m *Model) SampleIPProfile(rng *rand.Rand) IPProfile {
	v6 := rng.Float64() < m.cfg.IPv6Frac
	x := rng.Float64()
	switch {
	case x < m.cfg.StaticFrac:
		return IPProfile{Mode: IPStatic, ASFanout: 1, IPv6: v6}
	case x < m.cfg.StaticFrac+m.cfg.DynamicFrac:
		// Spread per-peer means: some ISPs rotate daily, some monthly.
		mean := m.cfg.DynamicRotationMeanDays * (0.3 + rng.ExpFloat64())
		return IPProfile{Mode: IPDynamic, RotationMeanDays: mean, ASFanout: 1, IPv6: v6}
	case x < m.cfg.StaticFrac+m.cfg.DynamicFrac+m.cfg.MultiASFrac:
		fan := uint8(2 + rng.IntN(9)) // 2..10
		mean := m.cfg.DynamicRotationMeanDays * (0.2 + rng.ExpFloat64()*0.6)
		return IPProfile{Mode: IPMultiAS, RotationMeanDays: mean, ASFanout: fan, IPv6: v6}
	default:
		// Heavy rotators: 11..39 ASes, sub-day to few-day rotation.
		fan := uint8(11 + rng.IntN(29)) // 11..39
		mean := m.cfg.HeavyRotationMeanDays * (0.3 + rng.ExpFloat64()*0.9)
		if mean < 0.05 {
			mean = 0.05
		}
		return IPProfile{Mode: IPHeavy, RotationMeanDays: mean, ASFanout: fan, IPv6: v6}
	}
}

// NextRotationDays draws the time in days until the peer's next address
// change. It returns +Inf for static profiles.
func (p IPProfile) NextRotationDays(rng *rand.Rand) float64 {
	if p.Mode == IPStatic || p.RotationMeanDays <= 0 {
		return math.Inf(1)
	}
	d := rng.ExpFloat64() * p.RotationMeanDays
	if d < 1.0/24 {
		d = 1.0 / 24 // at most one change per simulated hour
	}
	return d
}
