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
// Default parameters are calibrated so the synthetic network reproduces the
// paper's headline marginals: ~56%/74% of peers present at least 7 days
// continuously/intermittently, ~20%/31% at least 30 days, ~45% of known-IP
// peers keeping a single address over three months, ~0.65% hoarding more
// than a hundred addresses, >80% staying within one autonomous system and
// ~8.4% hopping across more than ten.
package churn

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Class buckets peers by longevity.
type Class int

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

// Config holds the model parameters. The zero value is unusable; use
// DefaultConfig.
type Config struct {
	// Class mix. Must sum to approximately 1.
	StableFrac    float64
	RegularFrac   float64
	TransientFrac float64

	// Membership span per class, in days: Floor + Exp(Mean). Stable spans
	// are shifted so stable peers cover a large part of any study.
	StableSpanFloor, StableSpanMean       float64
	RegularSpanFloor, RegularSpanMean     float64
	TransientSpanFloor, TransientSpanMean float64

	// Presence Markov chain per class: OnOn is P(online tomorrow | online
	// today), OffOn is P(online tomorrow | offline today).
	StableOnOn, StableOffOn       float64
	RegularOnOn, RegularOffOn     float64
	TransientOnOn, TransientOffOn float64

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
		StableFrac:    0.28,
		RegularFrac:   0.50,
		TransientFrac: 0.22,

		StableSpanFloor: 20, StableSpanMean: 50,
		RegularSpanFloor: 5, RegularSpanMean: 14,
		TransientSpanFloor: 1, TransientSpanMean: 3,

		StableOnOn: 0.985, StableOffOn: 0.50,
		RegularOnOn: 0.93, RegularOffOn: 0.35,
		TransientOnOn: 0.70, TransientOffOn: 0.45,

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
	classSum := cfg.StableFrac + cfg.RegularFrac + cfg.TransientFrac
	if math.Abs(classSum-1) > 0.01 {
		return nil, fmt.Errorf("churn: class fractions sum to %.3f, want 1", classSum)
	}
	ipSum := cfg.StaticFrac + cfg.DynamicFrac + cfg.MultiASFrac + cfg.HeavyFrac
	if math.Abs(ipSum-1) > 0.01 {
		return nil, fmt.Errorf("churn: IP-mode fractions sum to %.3f, want 1", ipSum)
	}
	for _, p := range []float64{
		cfg.StableOnOn, cfg.StableOffOn, cfg.RegularOnOn, cfg.RegularOffOn,
		cfg.TransientOnOn, cfg.TransientOffOn, cfg.IPv6Frac,
	} {
		if p < 0 || p > 1 {
			return nil, fmt.Errorf("churn: probability %v out of range", p)
		}
	}
	if cfg.DynamicRotationMeanDays <= 0 || cfg.HeavyRotationMeanDays <= 0 {
		return nil, fmt.Errorf("churn: rotation means must be positive")
	}
	return &Model{cfg: cfg}, nil
}

// MustNewModel is NewModel that panics on error, for use with the default
// configuration.
func MustNewModel(cfg Config) *Model {
	m, err := NewModel(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the model's configuration.
func (m *Model) Config() Config { return m.cfg }

// Profile is a sampled temporal profile for one peer.
type Profile struct {
	Class Class
	// SpanDays is the number of days between the peer's first and last
	// possible appearance (inclusive); at least 1.
	SpanDays int
	// OnOn and OffOn parameterize the daily presence Markov chain.
	OnOn, OffOn float64
}

// SampleProfile draws a longevity profile.
func (m *Model) SampleProfile(rng *rand.Rand) Profile {
	x := rng.Float64()
	switch {
	case x < m.cfg.StableFrac:
		span := int(m.cfg.StableSpanFloor) + int(rng.ExpFloat64()*m.cfg.StableSpanMean)
		return Profile{Class: ClassStable, SpanDays: span, OnOn: m.cfg.StableOnOn, OffOn: m.cfg.StableOffOn}
	case x < m.cfg.StableFrac+m.cfg.RegularFrac:
		span := int(m.cfg.RegularSpanFloor) + int(rng.ExpFloat64()*m.cfg.RegularSpanMean)
		return Profile{Class: ClassRegular, SpanDays: span, OnOn: m.cfg.RegularOnOn, OffOn: m.cfg.RegularOffOn}
	default:
		span := int(m.cfg.TransientSpanFloor) + int(rng.ExpFloat64()*m.cfg.TransientSpanMean)
		return Profile{Class: ClassTransient, SpanDays: span, OnOn: m.cfg.TransientOnOn, OffOn: m.cfg.TransientOffOn}
	}
}

// AppendPresence replays the profile's presence chain for up to maxDays
// days, appending one boolean per day to dst and returning the extended
// slice. Day 0 is always online (the peer is first observed when it
// joins). It appends min(SpanDays, maxDays) days, and the last in-span
// day is forced online so that SpanDays is the true first-to-last
// distance.
func (p Profile) AppendPresence(dst []bool, rng *rand.Rand, maxDays int) []bool {
	n := p.SpanDays
	if n > maxDays {
		n = maxDays
	}
	if n <= 0 {
		return dst
	}
	dst = append(dst, true)
	online := true
	for d := 1; d < n; d++ {
		var pOn float64
		if online {
			pOn = p.OnOn
		} else {
			pOn = p.OffOn
		}
		online = rng.Float64() < pOn
		dst = append(dst, online)
	}
	if n == p.SpanDays {
		dst[len(dst)-1] = true
	}
	return dst
}

// ExpectedDailyPresence returns the long-run fraction of in-span days the
// profile is online (the stationary probability of its Markov chain).
func (p Profile) ExpectedDailyPresence() float64 {
	// pi = OffOn / (1 - OnOn + OffOn)
	den := 1 - p.OnOn + p.OffOn
	if den <= 0 {
		return 1
	}
	return p.OffOn / den
}

// ExpectedActiveDays estimates the number of days a freshly sampled peer
// will be observed online within a study of studyDays, used by the
// population simulator to size arrival rates.
func (m *Model) ExpectedActiveDays(studyDays int) float64 {
	type classParams struct {
		frac, spanMean, floor, onOn, offOn float64
	}
	classes := []classParams{
		{m.cfg.StableFrac, m.cfg.StableSpanMean, m.cfg.StableSpanFloor, m.cfg.StableOnOn, m.cfg.StableOffOn},
		{m.cfg.RegularFrac, m.cfg.RegularSpanMean, m.cfg.RegularSpanFloor, m.cfg.RegularOnOn, m.cfg.RegularOffOn},
		{m.cfg.TransientFrac, m.cfg.TransientSpanMean, m.cfg.TransientSpanFloor, m.cfg.TransientOnOn, m.cfg.TransientOffOn},
	}
	total := 0.0
	for _, c := range classes {
		span := c.floor + c.spanMean
		if span > float64(studyDays) {
			span = float64(studyDays)
		}
		pi := Profile{OnOn: c.onOn, OffOn: c.offOn}.ExpectedDailyPresence()
		total += c.frac * span * pi
	}
	return total
}

// IPMode labels an IP-rotation behaviour.
type IPMode int

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

// IPProfile is a sampled IP-rotation behaviour for one peer.
type IPProfile struct {
	Mode IPMode
	// RotationMeanDays is this peer's mean days between address changes
	// (unused for IPStatic).
	RotationMeanDays float64
	// ASFanout is how many distinct ASes the peer may use (1 for static
	// and dynamic). The paper observed maxima of 39 ASes and 25 countries.
	ASFanout int
	// IPv6 marks peers that additionally publish an IPv6 address.
	IPv6 bool
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
		fan := 2 + rng.IntN(9) // 2..10
		mean := m.cfg.DynamicRotationMeanDays * (0.2 + rng.ExpFloat64()*0.6)
		return IPProfile{Mode: IPMultiAS, RotationMeanDays: mean, ASFanout: fan, IPv6: v6}
	default:
		// Heavy rotators: 11..39 ASes, sub-day to few-day rotation.
		fan := 11 + rng.IntN(29) // 11..39
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
