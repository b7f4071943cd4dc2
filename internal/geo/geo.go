// Package geo is the study's offline IP-geolocation substrate: a synthetic,
// deterministic substitute for the MaxMind database the paper used.
//
// The paper's ethics section requires offline resolution ("we use a locally
// installed version of the MaxMind Database to map them in an offline
// fashion", Section 3). This package goes one step further for
// reproducibility: it *allocates* synthetic IPv4 /16 and IPv6 blocks to a
// fixed roster of autonomous systems and countries whose peer shares are
// calibrated to the paper's Figures 10–12, and then resolves any allocated
// address back to its (country, ASN) record. Simulated peers draw their
// addresses from this allocator, so geographic analysis code exercises a
// real lookup path.
package geo

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"net/netip"
	"sort"
)

// PressFreedomHiddenThreshold is the press-freedom score above which I2P
// configures routers as hidden by default (Section 5.1: "peers located in
// countries with poor Press Freedom scores (i.e., greater than 50) are set
// to hidden").
const PressFreedomHiddenThreshold = 50

// Record is the result of resolving an IP address.
type Record struct {
	CountryCode string
	CountryName string
	ASN         uint32
	ASName      string
}

// AS describes one autonomous system in the database.
type AS struct {
	ASN     uint32
	Name    string
	Country string
	// GlobalShare is the AS's fraction of the worldwide peer population.
	GlobalShare float64
	// blocks lists the /16 IPv4 block indexes (address>>16) owned by the AS.
	blocks []uint32
}

// Country describes one country in the database.
type Country struct {
	Code  string
	Name  string
	Press int
	// Share is the country's fraction of the worldwide peer population.
	Share float64
	// ASNs lists the autonomous systems homed in this country.
	ASNs []uint32

	// ases[i] is ASNs[i]'s record and cumAS.cum[i] the cumulative global
	// share of ases[:i+1]: SampleAS's table, reached through the record
	// with no lookup by code.
	ases  []*AS
	cumAS cumTable
}

// Censored reports whether the country's press-freedom score exceeds the
// hidden-mode threshold.
func (c *Country) Censored() bool { return c.Press > PressFreedomHiddenThreshold }

// DB is the geolocation database. It is immutable after construction and
// safe for concurrent readers.
type DB struct {
	countries map[string]*Country
	ases      map[uint32]*AS
	v4block   map[uint32]uint32 // ipv4>>16 -> ASN

	countryList []*Country // sorted by share descending, then code
	asList      []*AS      // sorted by global share descending, then ASN

	cumCountry cumTable // cumulative country shares for sampling
	vpnASes    []*AS
}

// v4Base is the first synthetic /16 block: 11.0.0.0. The space is
// synthetic; no claim is made about real-world ownership.
const v4Base = uint32(11) << 24

// NewDB builds the default database from the calibrated rosters in data.go.
// Construction is fully deterministic.
func NewDB() *DB {
	db := &DB{
		countries: make(map[string]*Country),
		ases:      make(map[uint32]*AS),
		v4block:   make(map[uint32]uint32),
	}

	totalShare := 0
	for _, cs := range countrySpecs {
		totalShare += cs.Share
	}
	// The long tail of ~200 unlisted countries and regions absorbs any
	// remaining share via aggregate rest-of-world entries; the paper
	// reports "205 other countries and regions". We model them as 10
	// aggregate entries to keep the allocator small.
	const restEntries = 10
	rest := 1000 - totalShare
	specs := append([]countrySpec(nil), countrySpecs...)
	if rest > 0 {
		totalShare += rest
		for i := 0; i < restEntries; i++ {
			specs = append(specs, countrySpec{
				Code:  fmt.Sprintf("R%d", i),
				Name:  fmt.Sprintf("Rest of world %d", i),
				Share: rest / restEntries,
				Press: 30,
			})
		}
	}

	// Normalize so country shares always sum to exactly one, regardless of
	// roster edits.
	norm := float64(totalShare)
	for _, cs := range specs {
		c := &Country{
			Code:  cs.Code,
			Name:  cs.Name,
			Press: cs.Press,
			Share: float64(cs.Share) / norm,
		}
		db.countries[c.Code] = c
		db.countryList = append(db.countryList, c)
	}

	// Explicit ASes first.
	perCountryShare := make(map[string]int)
	for _, as := range asSpecs {
		c := db.countries[as.Country]
		if c == nil {
			continue
		}
		a := &AS{
			ASN:         as.ASN,
			Name:        as.Name,
			Country:     as.Country,
			GlobalShare: c.Share * float64(as.Share) / 1000,
		}
		db.ases[a.ASN] = a
		c.ASNs = append(c.ASNs, a.ASN)
		perCountryShare[as.Country] += as.Share
	}
	// One synthetic rest-of-country AS per country absorbs the remainder,
	// so that every country can mint addresses. Private 16-bit ASNs.
	nextPrivate := uint32(64512)
	for _, c := range db.countryList {
		remainder := 1000 - perCountryShare[c.Code]
		if remainder <= 0 && len(c.ASNs) > 0 {
			continue
		}
		a := &AS{
			ASN:         nextPrivate,
			Name:        "Regional ISPs of " + c.Name,
			Country:     c.Code,
			GlobalShare: c.Share * float64(remainder) / 1000,
		}
		nextPrivate++
		db.ases[a.ASN] = a
		c.ASNs = append(c.ASNs, a.ASN)
	}

	// Deterministic /16 allocation: iterate ASes in a stable order and
	// hand out blocks proportional to global share.
	asns := make([]uint32, 0, len(db.ases))
	for asn := range db.ases {
		asns = append(asns, asn)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	next := v4Base >> 16
	for _, asn := range asns {
		a := db.ases[asn]
		n := int(a.GlobalShare * 256)
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			a.blocks = append(a.blocks, next)
			db.v4block[next] = asn
			next++
		}
	}

	db.finish()
	return db
}

// finish derives the sorted lists and sampling tables. It must be called
// after countries, ases and v4block are populated.
func (db *DB) finish() {
	db.countryList = db.countryList[:0]
	for _, c := range db.countries {
		db.countryList = append(db.countryList, c)
	}
	sort.Slice(db.countryList, func(i, j int) bool {
		if db.countryList[i].Share != db.countryList[j].Share {
			return db.countryList[i].Share > db.countryList[j].Share
		}
		return db.countryList[i].Code < db.countryList[j].Code
	})
	db.asList = db.asList[:0]
	for _, a := range db.ases {
		db.asList = append(db.asList, a)
	}
	sort.Slice(db.asList, func(i, j int) bool {
		if db.asList[i].GlobalShare != db.asList[j].GlobalShare {
			return db.asList[i].GlobalShare > db.asList[j].GlobalShare
		}
		return db.asList[i].ASN < db.asList[j].ASN
	})

	cum := make([]float64, len(db.countryList))
	sum := 0.0
	for i, c := range db.countryList {
		sum += c.Share
		cum[i] = sum
	}
	db.cumCountry = newCumTable(cum)
	for _, c := range db.countries {
		sort.Slice(c.ASNs, func(i, j int) bool { return c.ASNs[i] < c.ASNs[j] })
		c.ases = make([]*AS, len(c.ASNs))
		cum := make([]float64, len(c.ASNs))
		s := 0.0
		for i, asn := range c.ASNs {
			c.ases[i] = db.ases[asn]
			s += c.ases[i].GlobalShare
			cum[i] = s
		}
		c.cumAS = newCumTable(cum)
	}
	db.vpnASes = make([]*AS, len(VPNASNs))
	for i, asn := range VPNASNs {
		db.vpnASes[i] = db.ases[asn]
	}
}

// cumTable is a nondecreasing cumulative-share table with a guide table
// over it: guide[k] is the first index whose share reaches the lower
// edge of bucket k of len(guide) equal buckets of [0, total). A search
// starts at its bucket's guess and so walks a few entries, most often
// none, instead of bisecting the table.
type cumTable struct {
	cum   []float64
	guide []int32
	scale float64 // len(guide) / total; zero when total is not positive
}

// guideBuckets is how many guide buckets a table has per entry. Four
// leave most buckets holding at most one entry's edge, so a search
// rarely walks; one per entry measured ≈ 30 % slower per draw.
const guideBuckets = 4

// newCumTable builds the guide over cum.
func newCumTable(cum []float64) cumTable {
	t := cumTable{cum: cum, guide: make([]int32, max(guideBuckets*len(cum), 1))}
	if len(cum) == 0 || cum[len(cum)-1] <= 0 {
		return t
	}
	t.scale = float64(len(t.guide)) / cum[len(cum)-1]
	i := 0
	for k := range t.guide {
		edge := float64(k) / t.scale
		for i < len(cum) && cum[i] < edge {
			i++
		}
		t.guide[k] = int32(i)
	}
	return t
}

// total returns the table's last cumulative share, zero if it is empty.
func (t *cumTable) total() float64 {
	if len(t.cum) == 0 {
		return 0
	}
	return t.cum[len(t.cum)-1]
}

// search returns sort.SearchFloat64s(t.cum, x), the first index whose
// share reaches x. The guide only picks where to start: walking back
// while the entry before also reaches x and forward while the entry does
// not makes the answer exact whatever the guess, rounding included.
func (t *cumTable) search(x float64) int {
	k := 0
	if f := x * t.scale; f > 0 {
		k = len(t.guide) - 1
		if f < float64(len(t.guide)) {
			k = int(f)
		}
	}
	i := int(t.guide[k])
	for i > 0 && t.cum[i-1] >= x {
		i--
	}
	for i < len(t.cum) && t.cum[i] < x {
		i++
	}
	return i
}

// Censored reports whether the country code is above the press-freedom
// threshold. Unknown codes are not censored.
func (db *DB) Censored(code string) bool {
	c := db.countries[code]
	return c != nil && c.Censored()
}

// Lookup resolves an address allocated by this database. The boolean is
// false for addresses outside the allocated space — mirroring the ~2K
// unresolvable addresses the paper hit with MaxMind (Section 5.3.2).
func (db *DB) Lookup(addr netip.Addr) (Record, bool) {
	if !addr.IsValid() {
		return Record{}, false
	}
	var asn uint32
	if addr.Is4() {
		b := addr.As4()
		ip := binary.BigEndian.Uint32(b[:])
		var ok bool
		asn, ok = db.v4block[ip>>16]
		if !ok {
			return Record{}, false
		}
	} else {
		b := addr.As16()
		if b[0] != 0x2a || b[1] != 0x10 {
			return Record{}, false
		}
		asn = binary.BigEndian.Uint32(b[2:6])
	}
	a := db.ases[asn]
	if a == nil {
		return Record{}, false
	}
	c := db.countries[a.Country]
	if c == nil {
		return Record{}, false
	}
	return Record{
		CountryCode: c.Code,
		CountryName: c.Name,
		ASN:         a.ASN,
		ASName:      a.Name,
	}, true
}

// RandomIPv4 returns a fresh IPv4 address inside one of the AS's /16
// blocks. Every AS of a DB owns at least one block.
func (a *AS) RandomIPv4(rng *rand.Rand) netip.Addr {
	block := a.blocks[rng.IntN(len(a.blocks))]
	host := uint32(rng.IntN(65534) + 1) // avoid .0.0 and broadcast-ish tails
	ip := block<<16 | host
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], ip)
	return netip.AddrFrom4(b)
}

// RandomIPv6 returns an IPv6 address in the AS's synthetic 2a10::/16-based
// space: the ASN is embedded in bytes 2–5, making lookup exact.
func (a *AS) RandomIPv6(rng *rand.Rand) netip.Addr {
	var b [16]byte
	b[0], b[1] = 0x2a, 0x10
	binary.BigEndian.PutUint32(b[2:6], a.ASN)
	for i := 6; i < 16; i++ {
		b[i] = byte(rng.IntN(256))
	}
	return netip.AddrFrom16(b)
}

// SampleCountry draws a country weighted by peer share.
func (db *DB) SampleCountry(rng *rand.Rand) *Country {
	if len(db.countryList) == 0 {
		return nil
	}
	x := rng.Float64() * db.cumCountry.total()
	i := db.cumCountry.search(x)
	if i >= len(db.countryList) {
		i = len(db.countryList) - 1
	}
	return db.countryList[i]
}

// SampleAS draws an AS within a country of this database (as Country or
// SampleCountry return it), weighted by the AS's share. It returns nil
// for a nil country.
func (db *DB) SampleAS(c *Country, rng *rand.Rand) *AS {
	if c == nil || len(c.ases) == 0 {
		return nil
	}
	total := c.cumAS.total()
	if total <= 0 {
		return c.ases[rng.IntN(len(c.ases))]
	}
	x := rng.Float64() * total
	i := c.cumAS.search(x)
	if i >= len(c.ases) {
		i = len(c.ases) - 1
	}
	return c.ases[i]
}

// SampleVPNAS draws one of the hosting/VPN ASes used to model routers
// operated behind VPNs or Tor (Section 5.3.2).
func (db *DB) SampleVPNAS(rng *rand.Rand) *AS {
	return db.vpnASes[rng.IntN(len(db.vpnASes))]
}
