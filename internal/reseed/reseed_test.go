package reseed

import (
	"encoding/binary"
	"errors"
	"net/netip"
	"path/filepath"
	"testing"
	"time"

	"github.com/i2pstudy/i2pstudy/internal/netdb"
)

func makeRecords(n int) []*netdb.RouterInfo {
	out := make([]*netdb.RouterInfo, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, &netdb.RouterInfo{
			Identity:  netdb.HashFromUint64(uint64(i)),
			Published: time.Date(2018, 2, 1, 0, 0, 0, 0, time.UTC),
			Caps:      netdb.NewCaps(100, false, true),
			Version:   "0.9.34",
			Addresses: []netdb.RouterAddress{{
				Transport: netdb.TransportNTCP,
				Addr:      netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 1}),
				Port:      12000,
			}},
		})
	}
	return out
}

func staticProvider(records []*netdb.RouterInfo) Provider {
	return func() []*netdb.RouterInfo { return records }
}

func TestFetchBoundedAndSticky(t *testing.T) {
	records := makeRecords(500)
	srv := NewServer(75, staticProvider(records), 1)

	got1 := srv.Fetch("198.51.100.1")
	if len(got1) != 75 {
		t.Fatalf("first fetch = %d records, want 75", len(got1))
	}
	// The same source gets the same set.
	got2 := srv.Fetch("198.51.100.1")
	if len(got2) != 75 {
		t.Fatalf("repeat fetch = %d records", len(got2))
	}
	set1 := make(map[netdb.Hash]bool)
	for _, ri := range got1 {
		set1[ri.Identity] = true
	}
	for _, ri := range got2 {
		if !set1[ri.Identity] {
			t.Fatal("repeat fetch returned a record outside the sticky set")
		}
	}
	// A different source gets a (very likely) different set.
	got3 := srv.Fetch("203.0.113.9")
	diff := 0
	for _, ri := range got3 {
		if !set1[ri.Identity] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("second source received an identical set; crawl resistance broken")
	}
	if len(srv.assigned) != 2 {
		t.Fatalf("sources served = %d, want 2", len(srv.assigned))
	}
}

func TestFetchStickySurvivesChurn(t *testing.T) {
	records := makeRecords(200)
	current := records
	srv := NewServer(50, func() []*netdb.RouterInfo { return current }, 2)
	got1 := srv.Fetch("src")
	// Half the network leaves.
	current = records[:100]
	got2 := srv.Fetch("src")
	if len(got2) > len(got1) {
		t.Fatal("sticky set grew after churn")
	}
	// Every returned record must still be live and from the original set.
	live := make(map[netdb.Hash]bool)
	for _, ri := range current {
		live[ri.Identity] = true
	}
	orig := make(map[netdb.Hash]bool)
	for _, ri := range got1 {
		orig[ri.Identity] = true
	}
	for _, ri := range got2 {
		if !live[ri.Identity] || !orig[ri.Identity] {
			t.Fatal("fetch returned dead or fresh record")
		}
	}
}

func TestFetchSmallNetwork(t *testing.T) {
	srv := NewServer(75, staticProvider(makeRecords(10)), 3)
	got := srv.Fetch("src")
	if len(got) != 10 {
		t.Fatalf("got %d, want all 10", len(got))
	}
}

func TestBootstrapMergesTwoServers(t *testing.T) {
	records := makeRecords(1000)
	a := NewServer(75, staticProvider(records), 4)
	b := NewServer(75, staticProvider(records), 5)
	c := NewServer(75, staticProvider(records), 6)

	got, err := Bootstrap([]*Server{a, b, c}, "client-1")
	if err != nil {
		t.Fatal(err)
	}
	// ~150 records from the first two servers, minus overlap.
	if len(got) < 120 || len(got) > 150 {
		t.Fatalf("bootstrap yielded %d records, want ~150", len(got))
	}
	// Only the first DefaultServerCount servers are contacted.
	if len(c.assigned) != 0 {
		t.Fatal("third server was contacted")
	}
	seen := make(map[netdb.Hash]bool)
	for _, ri := range got {
		if seen[ri.Identity] {
			t.Fatal("bootstrap returned duplicates")
		}
		seen[ri.Identity] = true
	}
}

func TestBootstrapErrors(t *testing.T) {
	if _, err := Bootstrap(nil, "x"); err == nil {
		t.Fatal("no servers accepted")
	}
	empty := NewServer(75, staticProvider(nil), 7)
	if _, err := Bootstrap([]*Server{empty}, "x"); err == nil {
		t.Fatal("empty network accepted")
	}
}

func TestBundleRoundTrip(t *testing.T) {
	records := makeRecords(150)
	now := time.Date(2018, 4, 15, 12, 0, 0, 0, time.UTC)
	data, err := CreateBundle(records, "manual-peer", now)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	if b.Signer != "manual-peer" {
		t.Fatalf("signer = %q", b.Signer)
	}
	if !b.CreatedAt.Equal(now) {
		t.Fatalf("created = %v, want %v", b.CreatedAt, now)
	}
	if len(b.Records) != 150 {
		t.Fatalf("records = %d", len(b.Records))
	}
	if b.Records[0].Identity != records[0].Identity {
		t.Fatal("record identity corrupted")
	}
}

func TestBundleTamperDetection(t *testing.T) {
	data, err := CreateBundle(makeRecords(5), "signer", time.Now().UTC())
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{6, 20, len(data) / 2, len(data) - 40} {
		bad := append([]byte(nil), data...)
		bad[pos] ^= 0xFF
		if _, err := ParseBundle(bad); err == nil {
			t.Errorf("tampering at byte %d accepted", pos)
		}
	}
	if _, err := ParseBundle(data[:10]); !errors.Is(err, ErrBadBundle) {
		t.Error("truncated bundle accepted")
	}
	if _, err := ParseBundle(nil); err == nil {
		t.Error("nil bundle accepted")
	}
}

func TestCreateBundleValidation(t *testing.T) {
	if _, err := CreateBundle(nil, "s", time.Now()); err == nil {
		t.Fatal("empty bundle accepted")
	}
}

// TestParseBundleRefusesEmpty: a correctly signed bundle that carries no
// records — one CreateBundle refuses to make — is malformed.
func TestParseBundleRefusesEmpty(t *testing.T) {
	const signer = "s"
	body := append([]byte{}, bundleMagic[:]...)
	body = append(body, byte(len(signer)))
	body = append(body, signer...)
	body = binary.BigEndian.AppendUint64(body, uint64(time.Date(2018, 4, 15, 0, 0, 0, 0, time.UTC).UnixMilli()))
	body = binary.BigEndian.AppendUint16(body, 0)
	tag := signingTag(body, signer)
	if _, err := ParseBundle(append(body, tag[:]...)); !errors.Is(err, ErrBadBundle) {
		t.Fatalf("zero-record bundle: err %v, want ErrBadBundle", err)
	}
}

func TestSeedFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, SeedFileName)
	records := makeRecords(40)
	now := time.Date(2018, 4, 15, 0, 0, 0, 0, time.UTC)
	if err := WriteSeedFile(path, records, "blocked-user-friend", now); err != nil {
		t.Fatal(err)
	}
	b, err := ReadSeedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Records) != 40 || b.Signer != "blocked-user-friend" {
		t.Fatalf("reload mismatch: %d records, signer %q", len(b.Records), b.Signer)
	}
	if _, err := ReadSeedFile(filepath.Join(dir, "missing.su3")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestManualReseedFlow is the Section 6.1 scenario end to end: reseed
// servers are blocked, a friendly peer exports a seed file, and the blocked
// user bootstraps from it.
func TestManualReseedFlow(t *testing.T) {
	friendView := makeRecords(120)
	path := filepath.Join(t.TempDir(), SeedFileName)
	if err := WriteSeedFile(path, friendView, "friend", time.Now().UTC()); err != nil {
		t.Fatal(err)
	}
	// The blocked user cannot call Bootstrap (no servers) ...
	if _, err := Bootstrap(nil, "blocked"); err == nil {
		t.Fatal("bootstrap should fail with all reseeds blocked")
	}
	// ... but can load the shared file.
	b, err := ReadSeedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	store := netdb.NewStore()
	for _, ri := range b.Records {
		store.PutRouterInfo(ri)
	}
	if store.RouterCount() != 120 {
		t.Fatalf("store has %d records after manual reseed, want 120", store.RouterCount())
	}
}
