package churn

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// referenceConfig is the longevity model as fifteen flat fields, the form
// the class table replaced, with referenceDefaults its default values.
type referenceConfig struct {
	StableFrac, RegularFrac, TransientFrac float64

	StableSpanFloor, StableSpanMean       float64
	RegularSpanFloor, RegularSpanMean     float64
	TransientSpanFloor, TransientSpanMean float64

	StableOnOn, StableOffOn       float64
	RegularOnOn, RegularOffOn     float64
	TransientOnOn, TransientOffOn float64
}

func referenceDefaults() referenceConfig {
	return referenceConfig{
		StableFrac:    0.28,
		RegularFrac:   0.50,
		TransientFrac: 0.22,

		StableSpanFloor: 20, StableSpanMean: 50,
		RegularSpanFloor: 5, RegularSpanMean: 14,
		TransientSpanFloor: 1, TransientSpanMean: 3,

		StableOnOn: 0.985, StableOffOn: 0.50,
		RegularOnOn: 0.93, RegularOffOn: 0.35,
		TransientOnOn: 0.70, TransientOffOn: 0.45,
	}
}

// referenceProfile is a profile that carries its chain's probabilities.
type referenceProfile struct {
	Class       Class
	SpanDays    int32
	OnOn, OffOn float64
}

func (p referenceProfile) ExpectedDailyPresence() float64 {
	den := 1 - p.OnOn + p.OffOn
	if den <= 0 {
		return 1
	}
	return p.OffOn / den
}

// referenceSampleProfile is SampleProfile as a switch over the flat fields.
func referenceSampleProfile(cfg referenceConfig, rng *rand.Rand) referenceProfile {
	x := rng.Float64()
	switch {
	case x < cfg.StableFrac:
		span := int32(cfg.StableSpanFloor) + int32(rng.ExpFloat64()*cfg.StableSpanMean)
		return referenceProfile{Class: ClassStable, SpanDays: span, OnOn: cfg.StableOnOn, OffOn: cfg.StableOffOn}
	case x < cfg.StableFrac+cfg.RegularFrac:
		span := int32(cfg.RegularSpanFloor) + int32(rng.ExpFloat64()*cfg.RegularSpanMean)
		return referenceProfile{Class: ClassRegular, SpanDays: span, OnOn: cfg.RegularOnOn, OffOn: cfg.RegularOffOn}
	default:
		span := int32(cfg.TransientSpanFloor) + int32(rng.ExpFloat64()*cfg.TransientSpanMean)
		return referenceProfile{Class: ClassTransient, SpanDays: span, OnOn: cfg.TransientOnOn, OffOn: cfg.TransientOffOn}
	}
}

// referenceResidualProfile is SampleResidualProfile over a local table of
// the flat fields.
func referenceResidualProfile(cfg referenceConfig, age int, rng *rand.Rand) referenceProfile {
	type cp struct {
		class       Class
		frac        float64
		floor, mean float64
		onOn, offOn float64
	}
	classes := []cp{
		{ClassStable, cfg.StableFrac, cfg.StableSpanFloor, cfg.StableSpanMean, cfg.StableOnOn, cfg.StableOffOn},
		{ClassRegular, cfg.RegularFrac, cfg.RegularSpanFloor, cfg.RegularSpanMean, cfg.RegularOnOn, cfg.RegularOffOn},
		{ClassTransient, cfg.TransientFrac, cfg.TransientSpanFloor, cfg.TransientSpanMean, cfg.TransientOnOn, cfg.TransientOffOn},
	}
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
	var residual int
	if float64(age) < sel.floor {
		residual = int(sel.floor) - age + int(rng.ExpFloat64()*sel.mean)
	} else {
		residual = 1 + int(rng.ExpFloat64()*sel.mean)
	}
	if residual < 1 {
		residual = 1
	}
	return referenceProfile{Class: sel.class, SpanDays: int32(residual), OnOn: sel.onOn, OffOn: sel.offOn}
}

// referenceSurvival is Survival as one sum over the flat fields.
func referenceSurvival(cfg referenceConfig, t float64) float64 {
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

// referenceAppendPresence is AppendPresence reading the chain off the
// profile.
func referenceAppendPresence(p referenceProfile, dst []bool, rng *rand.Rand, maxDays int) []bool {
	n := int(p.SpanDays)
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
	if n == int(p.SpanDays) {
		dst[len(dst)-1] = true
	}
	return dst
}

// referenceAppendStationaryPresence is AppendStationaryPresence as its own
// loop over the profile's chain.
func referenceAppendStationaryPresence(dst []bool, p referenceProfile, rng *rand.Rand, maxDays int) []bool {
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

// sameState reports whether two PCGs are at the same point of their
// stream.
func sameState(t *testing.T, a, b *rand.PCG) bool {
	t.Helper()
	as, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bs, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return slices.Equal(as, bs)
}

// TestModelMatchesReference holds the class-table model to the flat-field
// references on twin streams: at every age up to MaxAge, a residual
// profile and its stationary presence, then a fresh profile and its
// presence, each cut at a horizon that varies with the age so both the
// cut and the forced last day occur. Every profile, every presence day,
// every survival value and the streams' final states must agree.
func TestModelMatchesReference(t *testing.T) {
	ref := referenceDefaults()
	m := MustNewModel(DefaultConfig())
	if got, want := m.MaxAge(), int(ref.StableSpanFloor+8*ref.StableSpanMean); got != want {
		t.Fatalf("MaxAge = %d, want %d", got, want)
	}
	classes := DefaultConfig().Classes
	same := func(p Profile, r referenceProfile) bool {
		c := classes[p.Class]
		return p.Class == r.Class && p.SpanDays == r.SpanDays && c.OnOn == r.OnOn && c.OffOn == r.OffOn
	}
	var got, want []bool
	for seed := range uint64(12) {
		src, refSrc := rand.NewPCG(seed, seed^0x9E3779B9), rand.NewPCG(seed, seed^0x9E3779B9)
		rng, refRNG := rand.New(src), rand.New(refSrc)
		for age := range m.MaxAge() + 1 {
			horizon := age % 98
			p, r := m.SampleResidualProfile(age, rng), referenceResidualProfile(ref, age, refRNG)
			if !same(p, r) {
				t.Fatalf("seed %d age %d: residual profile %+v, reference %+v", seed, age, p, r)
			}
			got = m.AppendStationaryPresence(got[:0], p, rng, horizon)
			want = referenceAppendStationaryPresence(want[:0], r, refRNG, horizon)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d age %d: stationary presence %v, reference %v", seed, age, got, want)
			}
			p, r = m.SampleProfile(rng), referenceSampleProfile(ref, refRNG)
			if !same(p, r) {
				t.Fatalf("seed %d age %d: profile %+v, reference %+v", seed, age, p, r)
			}
			got = m.AppendPresence(got[:0], p, rng, horizon)
			want = referenceAppendPresence(r, want[:0], refRNG, horizon)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d age %d: presence %v, reference %v", seed, age, got, want)
			}
		}
		if !sameState(t, src, refSrc) {
			t.Fatalf("seed %d: streams diverge after the draws", seed)
		}
	}
	for age := range m.MaxAge() + 1 {
		if got, want := m.Survival(float64(age)), referenceSurvival(ref, float64(age)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Survival(%d) = %v, reference %v", age, got, want)
		}
	}
}
