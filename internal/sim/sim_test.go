package sim

import (
	"bytes"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/churn"
	"github.com/i2pstudy/i2pstudy/internal/netdb"
)

// testNetwork builds a 1/10-scale network once; the observation model is
// scale-invariant, so shape assertions transfer to full scale.
func testNetwork(t testing.TB, days int) *Network {
	t.Helper()
	n, err := New(Config{Seed: 42, Days: days, TargetDailyPeers: 3050})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Days: 0, TargetDailyPeers: 100}); err == nil {
		t.Fatal("zero days accepted")
	}
	if _, err := New(Config{Days: 5, TargetDailyPeers: 0}); err == nil {
		t.Fatal("zero target accepted")
	}
	bad := churn.DefaultConfig()
	bad.Classes[churn.ClassStable].Frac = 2
	if _, err := New(Config{Days: 5, TargetDailyPeers: 100, Churn: &bad}); err == nil {
		t.Fatal("bad churn config accepted")
	}
	// A peer's index is an int32: a network past that is refused, naming
	// the limit, before any peer-sized slice is made.
	for _, target := range []int{1 << 40, 1 << 62} {
		if _, err := New(Config{Days: 45, TargetDailyPeers: target}); err == nil || !strings.Contains(err.Error(), "2147483647") {
			t.Errorf("TargetDailyPeers %d: err = %v, want the int32 peer limit", target, err)
		}
	}
}

// TestScaledDailyPeers holds the -scale conversion to a finite peer
// count from 1 to the int32 edge: NaN, the infinities, zero, a negative
// scale, a scale giving less than one peer and a scale past the int32
// edge are refused, naming -scale, before the float is converted; the
// least accepted scale, 1/PaperDailyPeers, gives one peer.
func TestScaledDailyPeers(t *testing.T) {
	// edge is the greatest scale whose count is at most math.MaxInt32.
	edge := float64(math.MaxInt32) / PaperDailyPeers
	for edge*PaperDailyPeers > math.MaxInt32 {
		edge = math.Nextafter(edge, 0)
	}
	for next := math.Nextafter(edge, 2*edge); next*PaperDailyPeers <= math.MaxInt32; next = math.Nextafter(next, 2*edge) {
		edge = next
	}
	for _, tc := range []struct {
		scale float64
		want  int // 0: refused
	}{
		{0.1, 3050},
		{1, PaperDailyPeers},
		{edge, int(edge * PaperDailyPeers)},
		{math.Nextafter(edge, 2*edge), 0},
		{math.NaN(), 0},
		{math.Inf(1), 0},
		{math.Inf(-1), 0},
		{0, 0},
		{-1, 0},
		{1e300, 0},
		{1e-9, 0},
		{math.Nextafter(1.0/PaperDailyPeers, 0), 0},
		{1.0 / PaperDailyPeers, 1},
	} {
		got, err := ScaledDailyPeers(tc.scale)
		switch {
		case tc.want == 0 && (err == nil || !strings.HasPrefix(err.Error(), "-scale ")):
			t.Errorf("scale %v: (%d, %v), want an error naming -scale", tc.scale, got, err)
		case tc.want != 0 && (err != nil || got != tc.want):
			t.Errorf("scale %v: (%d, %v), want %d", tc.scale, got, err, tc.want)
		}
	}
	if got := int(edge * PaperDailyPeers); got < math.MaxInt32-1 {
		t.Errorf("the greatest accepted scale gives %d peers, not the int32 edge", got)
	}
}

func TestDeterminism(t *testing.T) {
	a, err := New(Config{Seed: 7, Days: 5, TargetDailyPeers: 500})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{Seed: 7, Days: 5, TargetDailyPeers: 500})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Peers) != len(b.Peers) {
		t.Fatalf("peer counts differ: %d vs %d", len(a.Peers), len(b.Peers))
	}
	for i := range a.Peers {
		if a.Peers[i].ID != b.Peers[i].ID || a.Peers[i].Country != b.Peers[i].Country {
			t.Fatalf("peer %d differs between identical seeds", i)
		}
	}
	oa := a.NewObserver(ObserverConfig{Seed: 1, SharedKBps: 1024})
	ob := b.NewObserver(ObserverConfig{Seed: 1, SharedKBps: 1024})
	la, lb := oa.ObserveDay(2), ob.ObserveDay(2)
	if len(la) != len(lb) {
		t.Fatalf("observation lengths differ: %d vs %d", len(la), len(lb))
	}
	// ObserveDay must also be idempotent.
	lc := oa.ObserveDay(2)
	if len(lc) != len(la) {
		t.Fatal("ObserveDay not idempotent")
	}
}

func TestDailyPopulationStable(t *testing.T) {
	n := testNetwork(t, 30)
	target := float64(n.Config().TargetDailyPeers)
	for day := 0; day < 30; day++ {
		active := float64(len(n.ActivePeers(day)))
		if active < target*0.8 || active > target*1.2 {
			t.Fatalf("day %d active = %.0f, want within 20%% of %.0f", day, active, target)
		}
	}
}

func TestStatusMix(t *testing.T) {
	n := testNetwork(t, 10)
	day := 5
	counts := make(map[Status]int)
	for _, idx := range n.ActivePeers(day) {
		counts[n.Peers[idx].Status]++
	}
	total := len(n.ActivePeers(day))
	// Figure 6 calibration: ~49% known-IP, ~51% unknown-IP of which
	// firewalled dominates.
	known := float64(counts[StatusKnownIP]) / float64(total)
	if known < 0.40 || known > 0.60 {
		t.Fatalf("known-IP share = %.2f, want ~0.49", known)
	}
	if counts[StatusFirewalled] <= counts[StatusHidden] {
		t.Fatal("firewalled peers must outnumber hidden-only peers")
	}
	if counts[StatusToggling] == 0 {
		t.Fatal("no toggling (overlap) peers")
	}
}

func TestClassDistribution(t *testing.T) {
	n := testNetwork(t, 10)
	counts := make(map[netdb.BandwidthClass]int)
	for _, idx := range n.ActivePeers(5) {
		counts[n.Peers[idx].Class]++
	}
	// Figure 9 ordering: L > N > P > X > O > M ~ K.
	if !(counts[netdb.ClassL] > counts[netdb.ClassN]) {
		t.Fatalf("L (%d) must dominate N (%d)", counts[netdb.ClassL], counts[netdb.ClassN])
	}
	if !(counts[netdb.ClassN] > counts[netdb.ClassP]) {
		t.Fatal("N must outnumber P")
	}
	if !(counts[netdb.ClassP] > counts[netdb.ClassO]) {
		t.Fatal("P must outnumber O (Figure 9)")
	}
	if !(counts[netdb.ClassX] > counts[netdb.ClassO]) {
		t.Fatal("X must outnumber O (Figure 9)")
	}
}

func TestFloodfillShare(t *testing.T) {
	n := testNetwork(t, 10)
	day := 5
	ff, total := 0, 0
	ffByClass := make(map[netdb.BandwidthClass]int)
	for _, idx := range n.ActivePeers(day) {
		p := n.Peers[idx]
		total++
		if p.Floodfill {
			ff++
			ffByClass[p.Class]++
		}
	}
	share := float64(ff) / float64(total)
	// Paper: 8.8% of observed peers carry the f flag.
	if share < 0.05 || share > 0.13 {
		t.Fatalf("floodfill share = %.3f, want ~0.088", share)
	}
	// Table 1: N dominates the floodfill group, ahead of L.
	if ffByClass[netdb.ClassN] <= ffByClass[netdb.ClassL] {
		t.Fatalf("floodfill N (%d) must dominate L (%d)", ffByClass[netdb.ClassN], ffByClass[netdb.ClassL])
	}
}

func TestRouterInfoMaterialization(t *testing.T) {
	n := testNetwork(t, 10)
	pcg := rand.NewPCG(1, 2)
	day := 3
	// The same draws made by the legacy one-pass materialization over
	// referenceIndex's pool must encode to the same bytes: New's
	// introducer pools are held to it here.
	_, refIntros := referenceIndex(n)
	refRNG := rand.New(rand.NewPCG(1, 2))
	var sawKnown, sawFirewalled, sawHidden, sawToggling bool
	for _, idx := range n.ActivePeers(day) {
		p := n.Peers[idx]
		sighting := n.SightingFor(int(idx), day, pcg)
		ri := n.RouterInfo(day, sighting)
		if ri.Identity != p.ID {
			t.Fatal("identity mismatch")
		}
		// IntroducerPeers names, in order, the peers behind the record's
		// introducers.
		var intros []netdb.Introducer
		for _, a := range ri.Addresses {
			intros = append(intros, a.Introducers...)
		}
		peers := n.IntroducerPeers(day, sighting)
		if len(peers) != len(intros) {
			t.Fatalf("peer %d: %d introducer peers for %d introducers", idx, len(peers), len(intros))
		}
		for i, in := range intros {
			if q := n.Peers[peers[i]]; q.ID != in.Hash || q.Status != StatusKnownIP {
				t.Fatalf("peer %d: introducer %d resolves to peer %d, not the record's", idx, i, peers[i])
			}
		}
		// Round-trip through the wire codec: everything the simulator
		// emits must parse.
		data, err := ri.Encode()
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		if _, err := netdb.DecodeRouterInfo(data); err != nil {
			t.Fatalf("decode: %v", err)
		}
		ref, err := legacyRouterInfo(n, int(idx), day, n.DayTime(day), refIntros[day].peers, refRNG).Encode()
		if err != nil {
			t.Fatalf("encode reference: %v", err)
		}
		if !bytes.Equal(data, ref) {
			t.Fatalf("peer %d: RouterInfo differs from the one over the reference pool", idx)
		}
		switch p.Status {
		case StatusKnownIP:
			sawKnown = true
			if !ri.HasKnownIP() {
				t.Fatal("known-IP peer published no address")
			}
			if ri.Firewalled() || (ri.HiddenPeer() && !ri.Caps.Hidden) {
				t.Fatal("known-IP peer misclassified")
			}
		case StatusFirewalled:
			sawFirewalled = true
			if ri.HasKnownIP() {
				t.Fatal("firewalled peer published an address")
			}
			if !ri.Firewalled() {
				t.Fatal("firewalled peer has no introducers")
			}
		case StatusHidden:
			sawHidden = true
			if !ri.HiddenPeer() || ri.Firewalled() {
				t.Fatal("hidden peer misclassified")
			}
		case StatusToggling:
			sawToggling = true
			if !ri.Firewalled() || !ri.HiddenPeer() {
				t.Fatal("toggling peer must classify as both firewalled and hidden")
			}
		}
	}
	if !sawKnown || !sawFirewalled || !sawHidden || !sawToggling {
		t.Fatal("not all statuses present in active set")
	}
}

func TestIPv6LowerThanIPv4(t *testing.T) {
	n := testNetwork(t, 10)
	v4, v6 := 0, 0
	for _, idx := range n.ActivePeers(5) {
		a4, a6 := n.AddrOnDay(int(idx), 5)
		if a4.IsValid() {
			v4++
		}
		if a6.IsValid() {
			v6++
		}
	}
	if v6 == 0 {
		t.Fatal("no IPv6 peers at all")
	}
	if v6 >= v4/2 {
		t.Fatalf("IPv6 (%d) should sit well below IPv4 (%d) (Figure 5)", v6, v4)
	}
}

// TestFigure2SingleRouterCoverage: a single high-end (8 MB/s) router
// observes roughly half the daily network, with non-floodfill mode
// slightly ahead of floodfill mode.
func TestFigure2SingleRouterCoverage(t *testing.T) {
	n := testNetwork(t, 10)
	nonFF := n.NewObserver(ObserverConfig{Seed: 1, SharedKBps: 8192, Floodfill: false})
	ff := n.NewObserver(ObserverConfig{Seed: 2, SharedKBps: 8192, Floodfill: true})
	var nfSum, ffSum, activeSum int
	for day := 2; day < 8; day++ {
		nfSum += len(nonFF.ObserveDay(day))
		ffSum += len(ff.ObserveDay(day))
		activeSum += len(n.ActivePeers(day))
	}
	nfFrac := float64(nfSum) / float64(activeSum)
	ffFrac := float64(ffSum) / float64(activeSum)
	// Paper: 15–16K of ~30.5K daily, i.e. ~50%.
	if nfFrac < 0.42 || nfFrac > 0.60 {
		t.Fatalf("non-floodfill coverage = %.3f, want ~0.51", nfFrac)
	}
	if ffFrac < 0.40 || ffFrac > 0.58 {
		t.Fatalf("floodfill coverage = %.3f, want ~0.48", ffFrac)
	}
	if nfFrac <= ffFrac {
		t.Fatalf("non-floodfill (%.3f) must edge out floodfill (%.3f) at 8 MB/s (Figure 2)", nfFrac, ffFrac)
	}
}

// TestFigure3BandwidthCrossover: floodfill observers win below ~2 MB/s,
// non-floodfill observers win above, and a mixed pair's union is roughly
// flat across bandwidths.
func TestFigure3BandwidthCrossover(t *testing.T) {
	n := testNetwork(t, 10)
	day := 5
	// Sum over several days to suppress sampling noise: the paper's
	// effect sizes are 1–2K on 15K (~10%).
	cover := func(ff bool, kbps int, seed uint64) int {
		o := n.NewObserver(ObserverConfig{Seed: seed, SharedKBps: kbps, Floodfill: ff})
		total := 0
		for d := 2; d < 9; d++ {
			total += len(o.ObserveDay(d))
		}
		return total
	}
	// Low bandwidth: floodfill advantage (paper: 1.5–2K more at <2MB/s).
	ffLow := cover(true, 128, 1)
	nfLow := cover(false, 128, 2)
	if ffLow <= nfLow {
		t.Fatalf("at 128 KB/s floodfill (%d) must observe more than non-floodfill (%d)", ffLow, nfLow)
	}
	// High bandwidth: non-floodfill advantage.
	ffHigh := cover(true, 5120, 3)
	nfHigh := cover(false, 5120, 4)
	if nfHigh <= ffHigh {
		t.Fatalf("at 5 MB/s non-floodfill (%d) must observe more than floodfill (%d)", nfHigh, ffHigh)
	}
	// Union flatness: pairs at each bandwidth within a narrow band.
	var unions []int
	for i, kbps := range []int{128, 1024, 5120} {
		ff := n.NewObserver(ObserverConfig{Seed: uint64(10 + i), SharedKBps: kbps, Floodfill: true})
		nf := n.NewObserver(ObserverConfig{Seed: uint64(20 + i), SharedKBps: kbps, Floodfill: false})
		claimed, union := n.NewClaimSet(), 0
		for _, o := range []*Observer{ff, nf} {
			for _, idx := range o.ObserveDay(day) {
				if claimed.Claim(idx) {
					union++
				}
			}
		}
		unions = append(unions, union)
	}
	lo, hi := unions[0], unions[0]
	for _, u := range unions {
		if u < lo {
			lo = u
		}
		if u > hi {
			hi = u
		}
	}
	if float64(hi-lo) > 0.18*float64(hi) {
		t.Fatalf("pair unions vary too much across bandwidths: %v", unions)
	}
	// And the union must exceed either individual router's single-day view.
	ffLowDay := n.NewObserver(ObserverConfig{Seed: 30, SharedKBps: 128, Floodfill: true})
	if unions[0] <= len(ffLowDay.ObserveDay(day)) {
		t.Fatal("union not larger than its floodfill member")
	}
}

// TestFigure4RouterScaling: the union over k routers grows
// logarithmically; 20 routers reach >=94% of what 40 reach.
func TestFigure4RouterScaling(t *testing.T) {
	n := testNetwork(t, 10)
	day := 5
	observers := make([]*Observer, 40)
	for i := range observers {
		observers[i] = n.NewObserver(ObserverConfig{
			Seed:       uint64(100 + i),
			SharedKBps: 8192,
			Floodfill:  i%2 == 0,
		})
	}
	seen := make(map[int]bool)
	cum := make([]int, len(observers)+1)
	for k, o := range observers {
		for _, idx := range o.ObserveDay(day) {
			seen[idx] = true
		}
		cum[k+1] = len(seen)
	}
	total40 := cum[40]
	if total40 == 0 {
		t.Fatal("no observations")
	}
	at20 := float64(cum[20]) / float64(total40)
	if at20 < 0.94 {
		t.Fatalf("20 routers reach %.3f of the 40-router view, want >= 0.94 (paper: 95.5%%)", at20)
	}
	at1 := float64(cum[1]) / float64(total40)
	if at1 < 0.40 || at1 > 0.65 {
		t.Fatalf("single router share = %.3f, want ~0.5", at1)
	}
	// Diminishing returns: the second half of routers adds less than 10%.
	gainSecondHalf := float64(cum[40]-cum[20]) / float64(total40)
	if gainSecondHalf > 0.10 {
		t.Fatalf("routers 21–40 added %.3f, want < 0.10", gainSecondHalf)
	}
	// Monotone non-decreasing.
	for k := 1; k <= 40; k++ {
		if cum[k] < cum[k-1] {
			t.Fatal("cumulative union decreased")
		}
	}
	// The 40-router union over one day should cover most of the active
	// set but not quite all of it.
	active := len(n.ActivePeers(day))
	frac := float64(total40) / float64(active)
	if frac < 0.90 || frac > 1.0 {
		t.Fatalf("40-router coverage = %.3f of actives", frac)
	}
}

func TestCollectDayMaterializesObservations(t *testing.T) {
	n := testNetwork(t, 10)
	o := n.NewObserver(ObserverConfig{Seed: 9, SharedKBps: 2048, Floodfill: true})
	day := 4
	idxs := o.ObserveDay(day)
	ris := o.CollectDay(day)
	if len(ris) != len(idxs) {
		t.Fatalf("CollectDay returned %d records for %d observations", len(ris), len(idxs))
	}
	for i, ri := range ris {
		if ri.Identity != n.Peers[idxs[i]].ID {
			t.Fatal("record order mismatch")
		}
	}
}

func TestIPChurnStatistics(t *testing.T) {
	n := testNetwork(t, 90)
	single, multi, over100, total := 0, 0, 0, 0
	singleAS, over10AS := 0, 0
	maxAS := 0
	for i, p := range n.Peers {
		if p.Status != StatusKnownIP || p.segments == 0 {
			continue
		}
		total++
		ips := uniqueIPs(n, i)
		if ips == 1 {
			single++
		} else {
			multi++
		}
		if ips > 100 {
			over100++
		}
		asns := uniqueASNs(n, i)
		if asns == 1 {
			singleAS++
		}
		if asns > 10 {
			over10AS++
		}
		if asns > maxAS {
			maxAS = asns
		}
	}
	if total == 0 {
		t.Fatal("no known-IP peers")
	}
	singleFrac := float64(single) / float64(total)
	// Figure 8: ~45% single-IP. Short-lived dynamic peers inflate this,
	// so allow a wide band.
	if singleFrac < 0.35 || singleFrac > 0.60 {
		t.Fatalf("single-IP share = %.3f, want ~0.45", singleFrac)
	}
	if multi == 0 {
		t.Fatal("no multi-IP peers")
	}
	// ManyIPPeers counts Figure 8's tail as the per-peer sets do, at its
	// threshold and at limits that the short-schedule skip sits on.
	if got := n.ManyIPPeers(100); got != over100 {
		t.Fatalf("ManyIPPeers(100) = %d, the per-peer sets say %d", got, over100)
	}
	for _, limit := range []int{0, 1, 2, 7, 30} {
		want := 0
		for i := range n.Peers {
			if uniqueIPs(n, i) > limit {
				want++
			}
		}
		if got := n.ManyIPPeers(limit); got != want {
			t.Fatalf("ManyIPPeers(%d) = %d, the per-peer sets say %d", limit, got, want)
		}
	}
	over100Frac := float64(over100) / float64(total)
	if over100Frac < 0.001 || over100Frac > 0.02 {
		t.Fatalf(">100-IP share = %.4f, want ~0.0065", over100Frac)
	}
	singleASFrac := float64(singleAS) / float64(total)
	if singleASFrac < 0.75 {
		t.Fatalf("single-AS share = %.3f, want > 0.80 (Figure 12)", singleASFrac)
	}
	over10Frac := float64(over10AS) / float64(total)
	if over10Frac < 0.02 || over10Frac > 0.13 {
		t.Fatalf(">10-AS share = %.3f, want ~0.084", over10Frac)
	}
	if maxAS > 39 {
		t.Fatalf("max AS count = %d, paper max is 39", maxAS)
	}
}

func TestAddrLookupsResolveViaGeoDB(t *testing.T) {
	n := testNetwork(t, 10)
	db := n.GeoDB()
	day := 5
	checked := 0
	for _, idx := range n.ActivePeers(day) {
		if n.Peers[idx].Status != StatusKnownIP {
			continue
		}
		v4, _ := n.AddrOnDay(int(idx), day)
		if !v4.IsValid() {
			continue
		}
		rec, ok := db.Lookup(v4)
		if !ok {
			t.Fatalf("peer address %v does not resolve", v4)
		}
		if asn := n.schedule(int(idx))[n.segmentOn(int(idx), day)].asn; rec.ASN != asn {
			t.Fatalf("ASN mismatch: lookup %d, schedule %d", rec.ASN, asn)
		}
		checked++
		if checked > 500 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("nothing checked")
	}
}

func TestPeerAccessors(t *testing.T) {
	n := testNetwork(t, 10)
	// ActiveOn and FirstActiveDay read a carved presence bitmap as the
	// chain it packs, on chains that span several words and first come
	// online in any of them.
	for _, first := range []int{0, 5, 31, 32, 40, 69, -1} {
		b := &builder{presence: make([]bool, 70)}
		for i := max(first, 0); first >= 0 && i < len(b.presence); i += 3 {
			b.presence[i] = true
		}
		one := &Network{Peers: []Peer{{StartDay: 7}}}
		b.carve(&one.Peers[0], &one.words)
		start := int(one.Peers[0].StartDay)
		wantFirst := -1
		if first >= 0 {
			wantFirst = start + first
		}
		if got := one.FirstActiveDay(0); got != wantFirst {
			t.Fatalf("chain first online at %d: FirstActiveDay %d, want %d", first, got, wantFirst)
		}
		for day := start - 1; day <= start+len(b.presence); day++ {
			i := day - start
			if want := i >= 0 && i < len(b.presence) && b.presence[i]; one.ActiveOn(0, day) != want {
				t.Fatalf("chain first online at %d: ActiveOn(%d) = %v, want %v", first, day, !want, want)
			}
		}
	}
	if n.ActivePeers(-1) != nil || n.ActivePeers(1000) != nil {
		t.Fatal("out-of-range days must return nil")
	}
	if n.Introducers(-1) != nil {
		t.Fatal("out-of-range introducers must return nil")
	}
	if !n.DayTime(0).After(StudyStart) {
		t.Fatal("DayTime(0) must be within day 0")
	}
	if Status(99).String() != "invalid" {
		t.Fatal("unknown status string")
	}
}

// uniqueASNs returns the number of distinct autonomous systems across
// peer idx's schedule — Figure 12's per-peer statistic.
func uniqueASNs(n *Network, idx int) int {
	seen := make(map[uint32]bool, 4)
	for _, seg := range n.schedule(idx) {
		seen[seg.asn] = true
	}
	for _, r := range n.sameDayRotations(idx) {
		seen[r.asn] = true
	}
	return len(seen)
}

// uniqueIPs is the per-peer form ManyIPPeers replaced: the number of
// distinct IPv4 addresses across peer idx's schedule, including same-day
// rotations — Figure 8's per-peer statistic at the paper's hourly
// capture resolution.
func uniqueIPs(n *Network, idx int) int {
	seen := make(map[[4]byte]bool)
	for _, seg := range n.schedule(idx) {
		seen[seg.v4] = true
	}
	for _, r := range n.sameDayRotations(idx) {
		seen[r.v4] = true
	}
	return len(seen)
}
