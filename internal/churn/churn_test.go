package churn

import (
	"math"
	"math/rand/v2"
	"testing"
)

func testRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seed^0x9E3779B9)) }

func TestNewModelValidation(t *testing.T) {
	if _, err := NewModel(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
	bad := DefaultConfig()
	bad.StableFrac = 0.9
	if _, err := NewModel(bad); err == nil {
		t.Fatal("non-normalized class mix accepted")
	}
	bad = DefaultConfig()
	bad.StaticFrac = 0.9
	if _, err := NewModel(bad); err == nil {
		t.Fatal("non-normalized IP mix accepted")
	}
	bad = DefaultConfig()
	bad.StableOnOn = 1.5
	if _, err := NewModel(bad); err == nil {
		t.Fatal("out-of-range probability accepted")
	}
	bad = DefaultConfig()
	bad.DynamicRotationMeanDays = 0
	if _, err := NewModel(bad); err == nil {
		t.Fatal("zero rotation mean accepted")
	}
	if _, err := NewModel(DefaultConfig()); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestSampleProfileClasses(t *testing.T) {
	m := MustNewModel(DefaultConfig())
	rng := testRNG(1)
	counts := make(map[Class]int)
	n := 50000
	for i := 0; i < n; i++ {
		p := m.SampleProfile(rng)
		counts[p.Class]++
		if p.SpanDays < 1 {
			t.Fatalf("span %d < 1", p.SpanDays)
		}
		if p.Class == ClassStable && p.SpanDays < 20 {
			t.Fatalf("stable span %d below floor", p.SpanDays)
		}
	}
	cfg := DefaultConfig()
	for class, want := range map[Class]float64{
		ClassStable:    cfg.StableFrac,
		ClassRegular:   cfg.RegularFrac,
		ClassTransient: cfg.TransientFrac,
	} {
		got := float64(counts[class]) / float64(n)
		if math.Abs(got-want) > 0.02 {
			t.Errorf("class %v frequency = %.3f, want ~%.3f", class, got, want)
		}
	}
}

func TestGeneratePresenceInvariants(t *testing.T) {
	m := MustNewModel(DefaultConfig())
	rng := testRNG(2)
	for i := 0; i < 2000; i++ {
		p := m.SampleProfile(rng)
		pres := p.AppendPresence(nil, rng, 90)
		if len(pres) == 0 {
			t.Fatal("empty presence")
		}
		if len(pres) > 90 || len(pres) > p.SpanDays {
			t.Fatalf("presence length %d exceeds bounds (span %d)", len(pres), p.SpanDays)
		}
		if !pres[0] {
			t.Fatal("day 0 must be online")
		}
		if len(pres) == p.SpanDays && !pres[len(pres)-1] {
			t.Fatal("last in-span day must be online")
		}
	}
}

// TestChurnCalibration reproduces Figure 7's anchor points from the
// generative model: presence >= 7 days continuously for ~56% of peers and
// intermittently for ~74%; >= 30 days for ~20% and ~31%. Bands are
// deliberately wide — the assertion is about the shape, not the digits.
func TestChurnCalibration(t *testing.T) {
	m := MustNewModel(DefaultConfig())
	rng := testRNG(3)
	const n = 30000
	const studyDays = 90
	cont7, cont30, int7, int30 := 0, 0, 0, 0
	for i := 0; i < n; i++ {
		p := m.SampleProfile(rng)
		pres := p.AppendPresence(nil, rng, studyDays)
		run := LongestRun(pres)
		span := SpanDays(pres)
		if run >= 7 {
			cont7++
		}
		if run >= 30 {
			cont30++
		}
		if span >= 7 {
			int7++
		}
		if span >= 30 {
			int30++
		}
	}
	pct := func(c int) float64 { return 100 * float64(c) / float64(n) }
	if got := pct(cont7); got < 45 || got > 66 {
		t.Errorf("continuous >=7d = %.1f%%, want ~56%%", got)
	}
	if got := pct(int7); got < 63 || got > 83 {
		t.Errorf("intermittent >=7d = %.1f%%, want ~74%%", got)
	}
	if got := pct(cont30); got < 13 || got > 28 {
		t.Errorf("continuous >=30d = %.1f%%, want ~20%%", got)
	}
	if got := pct(int30); got < 23 || got > 40 {
		t.Errorf("intermittent >=30d = %.1f%%, want ~31%%", got)
	}
	// Ordering invariants: intermittent dominates continuous; longer
	// horizons have smaller shares.
	if cont7 > int7 || cont30 > int30 {
		t.Error("continuous share exceeds intermittent share")
	}
	if cont30 > cont7 || int30 > int7 {
		t.Error("30-day share exceeds 7-day share")
	}
}

func TestExpectedDailyPresence(t *testing.T) {
	p := Profile{OnOn: 0.9, OffOn: 0.3}
	want := 0.3 / (1 - 0.9 + 0.3)
	if got := p.ExpectedDailyPresence(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("stationary presence = %v, want %v", got, want)
	}
	// Degenerate chain that never leaves the online state.
	p = Profile{OnOn: 1, OffOn: 0}
	if got := p.ExpectedDailyPresence(); got != 1 {
		t.Fatalf("degenerate chain presence = %v, want 1", got)
	}
}

func TestExpectedActiveDaysSanity(t *testing.T) {
	m := MustNewModel(DefaultConfig())
	got := m.ExpectedActiveDays(90)
	if got < 5 || got > 80 {
		t.Fatalf("ExpectedActiveDays(90) = %.1f, outside sanity band", got)
	}
	// Empirical check: the analytical estimate must be within 30% of a
	// Monte Carlo estimate.
	rng := testRNG(4)
	sum := 0
	const n = 20000
	for i := 0; i < n; i++ {
		p := m.SampleProfile(rng)
		sum += DaysOnline(p.AppendPresence(nil, rng, 90))
	}
	mc := float64(sum) / float64(n)
	if got < mc*0.7 || got > mc*1.3 {
		t.Fatalf("analytical %.1f vs monte carlo %.1f differ by >30%%", got, mc)
	}
}

func TestSampleIPProfileMix(t *testing.T) {
	m := MustNewModel(DefaultConfig())
	rng := testRNG(5)
	counts := make(map[IPMode]int)
	v6 := 0
	const n = 50000
	for i := 0; i < n; i++ {
		p := m.SampleIPProfile(rng)
		counts[p.Mode]++
		if p.IPv6 {
			v6++
		}
		switch p.Mode {
		case IPStatic, IPDynamic:
			if p.ASFanout != 1 {
				t.Fatalf("%v fanout = %d, want 1", p.Mode, p.ASFanout)
			}
		case IPMultiAS:
			if p.ASFanout < 2 || p.ASFanout > 10 {
				t.Fatalf("multi-AS fanout = %d, want 2..10", p.ASFanout)
			}
		case IPHeavy:
			if p.ASFanout < 11 || p.ASFanout > 39 {
				t.Fatalf("heavy fanout = %d, want 11..39 (paper max 39)", p.ASFanout)
			}
		}
	}
	cfg := DefaultConfig()
	for mode, want := range map[IPMode]float64{
		IPStatic:  cfg.StaticFrac,
		IPDynamic: cfg.DynamicFrac,
		IPMultiAS: cfg.MultiASFrac,
		IPHeavy:   cfg.HeavyFrac,
	} {
		got := float64(counts[mode]) / float64(n)
		if math.Abs(got-want) > 0.02 {
			t.Errorf("mode %v frequency = %.3f, want ~%.3f", mode, got, want)
		}
	}
	if got := float64(v6) / float64(n); math.Abs(got-cfg.IPv6Frac) > 0.02 {
		t.Errorf("IPv6 fraction = %.3f, want ~%.3f", got, cfg.IPv6Frac)
	}
}

func TestNextRotationDays(t *testing.T) {
	rng := testRNG(6)
	static := IPProfile{Mode: IPStatic}
	if !math.IsInf(static.NextRotationDays(rng), 1) {
		t.Fatal("static profile must never rotate")
	}
	dyn := IPProfile{Mode: IPDynamic, RotationMeanDays: 10}
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		d := dyn.NextRotationDays(rng)
		if d < 1.0/24 {
			t.Fatalf("rotation interval %v below one hour", d)
		}
		sum += d
	}
	mean := sum / n
	if mean < 8 || mean > 12 {
		t.Fatalf("mean rotation = %.2f days, want ~10", mean)
	}
}

// TestHeavyRotatorsAccumulateAddresses checks the Figure 8 tail: a heavy
// profile online for the whole study accumulates over a hundred addresses.
func TestHeavyRotatorsAccumulateAddresses(t *testing.T) {
	rng := testRNG(7)
	p := IPProfile{Mode: IPHeavy, RotationMeanDays: 0.5, ASFanout: 20}
	days := 90.0
	clock, changes := 0.0, 1
	for {
		step := p.NextRotationDays(rng)
		clock += step
		if clock > days {
			break
		}
		changes++
	}
	if changes <= 100 {
		t.Fatalf("heavy rotator accumulated only %d addresses over 90 days", changes)
	}
}

func TestPresenceHelpers(t *testing.T) {
	cases := []struct {
		in   []bool
		run  int
		span int
		on   int
	}{
		{nil, 0, 0, 0},
		{[]bool{false, false}, 0, 0, 0},
		{[]bool{true}, 1, 1, 1},
		{[]bool{true, false, true}, 1, 3, 2},
		{[]bool{true, true, false, true, true, true}, 3, 6, 5},
		{[]bool{false, true, true, false}, 2, 2, 2},
	}
	for i, c := range cases {
		if got := LongestRun(c.in); got != c.run {
			t.Errorf("case %d: LongestRun = %d, want %d", i, got, c.run)
		}
		if got := SpanDays(c.in); got != c.span {
			t.Errorf("case %d: SpanDays = %d, want %d", i, got, c.span)
		}
		if got := DaysOnline(c.in); got != c.on {
			t.Errorf("case %d: DaysOnline = %d, want %d", i, got, c.on)
		}
	}
}

func TestClassAndModeStrings(t *testing.T) {
	if ClassStable.String() != "stable" || ClassTransient.String() != "transient" {
		t.Fatal("class strings wrong")
	}
	if IPHeavy.String() != "heavy" || IPStatic.String() != "static" {
		t.Fatal("mode strings wrong")
	}
	if Class(99).String() == "" || IPMode(99).String() == "" {
		t.Fatal("unknown enums must still format")
	}
}
