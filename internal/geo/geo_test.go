package geo

import (
	"math/rand/v2"
	"net/netip"
	"testing"
)

func testRNG() *rand.Rand { return rand.New(rand.NewPCG(1, 2)) }

func TestNewDBBasics(t *testing.T) {
	db := NewDB()
	if db.countries["US"] == nil || db.countries["CN"] == nil {
		t.Fatal("core countries missing")
	}
	if db.ases[7922] == nil {
		t.Fatal("AS7922 (Comcast) missing")
	}
	if got := db.ases[7922].Country; got != "US" {
		t.Fatalf("AS7922 country = %s, want US", got)
	}
	// US must be the top country; Comcast the top AS (Figures 10, 11).
	if db.countryList[0].Code != "US" {
		t.Fatalf("top country = %s, want US", db.countryList[0].Code)
	}
	if db.asList[0].ASN != 7922 {
		t.Fatalf("top AS = %d, want 7922", db.asList[0].ASN)
	}
}

// TestPackCountry: every code the database holds packs to a distinct
// non-zero value that unpacks to the code, and packed order is the codes'
// lexicographic order.
func TestPackCountry(t *testing.T) {
	db := NewDB()
	byPacked := make(map[uint16]string, len(db.countryList))
	for _, c := range db.countryList {
		packed := PackCountry(c.Code)
		if packed == 0 || UnpackCountry(packed) != c.Code {
			t.Fatalf("country %q packs to %#x, which unpacks to %q", c.Code, packed, UnpackCountry(packed))
		}
		if other, dup := byPacked[packed]; dup {
			t.Fatalf("countries %q and %q pack alike", other, c.Code)
		}
		byPacked[packed] = c.Code
	}
	if PackCountry("AA") >= PackCountry("AB") || PackCountry("AB") >= PackCountry("BA") {
		t.Fatal("packed country order must match lexicographic order")
	}
	if PackCountry("") != 0 || PackCountry("USA") != 0 {
		t.Fatal("a code that is not two bytes must pack to 0")
	}
}

func TestCountrySharesCalibration(t *testing.T) {
	db := NewDB()
	// Figure 10: US+RU+GB+FR+CA+AU > 40% of peers.
	big6 := 0.0
	for _, cc := range []string{"US", "RU", "GB", "FR", "CA", "AU"} {
		big6 += db.countries[cc].Share
	}
	if big6 < 0.40 {
		t.Fatalf("top-6 share = %.3f, want > 0.40", big6)
	}
	// Top 20 > 60%.
	top20 := 0.0
	for i, c := range db.countryList {
		if i >= 20 {
			break
		}
		top20 += c.Share
	}
	if top20 < 0.60 {
		t.Fatalf("top-20 share = %.3f, want > 0.60", top20)
	}
	// Total share must not exceed 1.
	total := 0.0
	for _, c := range db.countryList {
		total += c.Share
	}
	if total > 1.0001 || total < 0.95 {
		t.Fatalf("total share = %.4f, want ~1", total)
	}
}

func TestCensoredCountries(t *testing.T) {
	db := NewDB()
	if !db.Censored("CN") || !db.Censored("TR") || !db.Censored("SG") {
		t.Fatal("CN, TR, SG must be censored (press score > 50)")
	}
	if db.Censored("US") || db.Censored("RU") {
		t.Fatal("US and RU must not be in the censored group")
	}
	if db.Censored("??") {
		t.Fatal("unknown country censored")
	}
	var cs []string
	for _, c := range db.countryList {
		if c.Censored() {
			cs = append(cs, c.Code)
		}
	}
	// The roster has 32 countries with poor scores (30 with peers + 2
	// without), mirroring Section 5.3.2.
	if len(cs) != 32 {
		t.Fatalf("censored countries = %d, want 32", len(cs))
	}
	withPeers := 0
	for _, cc := range cs {
		if db.countries[cc].Share > 0 {
			withPeers++
		}
	}
	if withPeers != 30 {
		t.Fatalf("censored countries with peers = %d, want 30", withPeers)
	}
	// China must lead the censored group.
	if cs[0] != "CN" {
		t.Fatalf("leading censored country = %s, want CN", cs[0])
	}
}

func TestLookupRoundTripIPv4(t *testing.T) {
	db := NewDB()
	rng := testRNG()
	for _, asn := range []uint32{7922, 12389, 4134, 9121, 16276} {
		for i := 0; i < 50; i++ {
			addr := db.ases[asn].RandomIPv4(rng)
			rec, ok := db.Lookup(addr)
			if !ok {
				t.Fatalf("Lookup(%v) failed for AS%d", addr, asn)
			}
			if rec.ASN != asn {
				t.Fatalf("Lookup(%v).ASN = %d, want %d", addr, rec.ASN, asn)
			}
			if rec.CountryCode != db.ases[asn].Country {
				t.Fatalf("country mismatch for AS%d: %s", asn, rec.CountryCode)
			}
		}
	}
}

func TestLookupRoundTripIPv6(t *testing.T) {
	db := NewDB()
	rng := testRNG()
	addr := db.ases[4134].RandomIPv6(rng)
	if !addr.Is6() {
		t.Fatal("RandomIPv6 returned non-IPv6")
	}
	rec, ok := db.Lookup(addr)
	if !ok || rec.ASN != 4134 || rec.CountryCode != "CN" {
		t.Fatalf("Lookup(%v) = %+v, %v", addr, rec, ok)
	}
}

func TestLookupUnknown(t *testing.T) {
	db := NewDB()
	for _, s := range []string{"8.8.8.8", "192.168.1.1", "2001:db8::1"} {
		addr := mustAddr(t, s)
		if _, ok := db.Lookup(addr); ok {
			t.Errorf("Lookup(%s) resolved an unallocated address", s)
		}
	}
	var zero = netipAddrZero()
	if _, ok := db.Lookup(zero); ok {
		t.Error("Lookup(zero addr) should fail")
	}
}

func TestSampleCountryDistribution(t *testing.T) {
	db := NewDB()
	rng := testRNG()
	n := 20000
	counts := make(map[string]int)
	for i := 0; i < n; i++ {
		counts[db.SampleCountry(rng).Code]++
	}
	usShare := float64(counts["US"]) / float64(n)
	if usShare < 0.20 || usShare > 0.29 {
		t.Fatalf("US sample share = %.3f, want ~0.24", usShare)
	}
	if counts["CN"] == 0 || counts["SG"] == 0 {
		t.Fatal("censored countries never sampled")
	}
}

func TestSampleASWithinCountry(t *testing.T) {
	db := NewDB()
	rng := testRNG()
	counts := make(map[uint32]int)
	us := db.countries["US"]
	for i := 0; i < 5000; i++ {
		a := db.SampleAS(us, rng)
		if a == nil {
			t.Fatal("SampleAS(US) returned nil")
		}
		if a.Country != "US" {
			t.Fatalf("sampled AS%d from %s", a.ASN, a.Country)
		}
		counts[a.ASN]++
	}
	// Comcast's within-US share is 30%: it must dominate.
	for asn, c := range counts {
		if asn != 7922 && c > counts[7922] {
			t.Fatalf("AS%d (%d) sampled more than Comcast (%d)", asn, c, counts[7922])
		}
	}
	if db.SampleAS(db.countries["??"], rng) != nil {
		t.Fatal("unknown country should sample nil")
	}
}

func TestSampleVPNAS(t *testing.T) {
	db := NewDB()
	rng := testRNG()
	seen := make(map[uint32]bool)
	for i := 0; i < 200; i++ {
		a := db.SampleVPNAS(rng)
		if a == nil {
			t.Fatal("SampleVPNAS returned nil")
		}
		seen[a.ASN] = true
	}
	if len(seen) < 3 {
		t.Fatalf("VPN sampling hit only %d ASes", len(seen))
	}
}

func TestEveryCountryCanMintAddresses(t *testing.T) {
	db := NewDB()
	rng := testRNG()
	for _, c := range db.countryList {
		if len(c.ASNs) == 0 {
			t.Fatalf("country %s has no ASes", c.Code)
		}
		a := db.SampleAS(c, rng)
		if a == nil {
			t.Fatalf("SampleAS(%s) = nil", c.Code)
		}
		addr := a.RandomIPv4(rng)
		rec, ok := db.Lookup(addr)
		if !ok || rec.CountryCode != c.Code {
			t.Fatalf("country %s: minted %v resolved to %+v ok=%v", c.Code, addr, rec, ok)
		}
	}
}

func mustAddr(t *testing.T, s string) netip.Addr {
	t.Helper()
	a, err := netip.ParseAddr(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func netipAddrZero() netip.Addr { return netip.Addr{} }
