package geo

import (
	"math"
	"sort"
	"testing"
)

// checkSearch fails t unless tab.search(x) is sort.SearchFloat64s's
// answer for x.
func checkSearch(t *testing.T, tab *cumTable, x float64) {
	t.Helper()
	if got, want := tab.search(x), sort.SearchFloat64s(tab.cum, x); got != want {
		t.Fatalf("search(%v) = %d, sort.SearchFloat64s = %d over %v", x, got, want, tab.cum)
	}
}

// checkTable holds tab.search to sort.SearchFloat64s at the draw u·total,
// at the largest draw below one, at every bucket edge and every entry,
// and one float either side of each.
func checkTable(t *testing.T, tab *cumTable, u float64) {
	t.Helper()
	total := tab.total()
	xs := []float64{0, u * total, math.Nextafter(1, 0) * total, total}
	if tab.scale > 0 {
		for k := range tab.guide {
			xs = append(xs, float64(k)/tab.scale)
		}
	}
	xs = append(xs, tab.cum...)
	for _, x := range xs {
		checkSearch(t, tab, x)
		checkSearch(t, tab, math.Nextafter(x, math.Inf(-1)))
		checkSearch(t, tab, math.Nextafter(x, math.Inf(1)))
	}
}

// FuzzGuidedSearch: the guided search returns exactly what bisection does
// on any nondecreasing cumulative table — runs of zero share, one-entry
// tables, shares of any magnitude — wherever the draw falls in [0, 1).
func FuzzGuidedSearch(f *testing.F) {
	f.Add([]byte{0x10, 0x20, 0x30}, 1.0, 0.5)
	f.Add([]byte{0x00, 0x00, 0x50, 0x00, 0x00, 0x10}, 1e-3, 0.999)
	f.Add([]byte{0x70}, 3.0, 0.0)
	f.Add([]byte{0x00}, 1.0, 0.25)
	f.Add([]byte{0xf0, 0x00, 0x00, 0x00, 0x01, 0xf0}, 1e300, math.Nextafter(1, 0))
	f.Add([]byte{0x10, 0x10, 0x10, 0x10}, 5e-324, 0.75)
	f.Fuzz(func(t *testing.T, shares []byte, unit, u float64) {
		if len(shares) > 256 {
			shares = shares[:256]
		}
		if !(unit > 0) || unit > 1e300 {
			unit = 1
		}
		u = math.Abs(math.Mod(u, 1))
		if !(u < 1) {
			u = 0
		}
		cum := make([]float64, len(shares))
		s := 0.0
		for i, b := range shares {
			s += float64(b>>4) * unit
			cum[i] = s
		}
		tab := newCumTable(cum)
		checkTable(t, &tab, u)
	})
}

// TestDBTablesSearchExactly: every table the database samples through
// answers each draw of a fine grid, and each entry and its neighbours, as
// bisection does.
func TestDBTablesSearchExactly(t *testing.T) {
	db := NewDB()
	tables := []*cumTable{&db.cumCountry}
	for _, c := range db.countryList {
		tables = append(tables, &c.cumAS)
	}
	for _, tab := range tables {
		for i := range 1000 {
			checkTable(t, tab, float64(i)/1000)
		}
	}
}

// TestSampleVPNASRecords: the VPN table holds the database's own record
// for every listed VPN ASN, in list order.
func TestSampleVPNASRecords(t *testing.T) {
	db := NewDB()
	if len(db.vpnASes) != len(VPNASNs) {
		t.Fatalf("%d VPN records for %d VPN ASNs", len(db.vpnASes), len(VPNASNs))
	}
	for i, asn := range VPNASNs {
		if db.vpnASes[i] == nil || db.vpnASes[i] != db.ases[asn] {
			t.Fatalf("VPN record %d is not AS%d's", i, asn)
		}
	}
}
