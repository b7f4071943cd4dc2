package reseed

import (
	"testing"
	"time"

	"github.com/i2pstudy/i2pstudy/internal/netdb"
)

// TestBundleSetRoundTrip: every non-empty slot parses back to exactly the
// records it was built from; empty and out-of-range slots serve nothing.
func TestBundleSetRoundTrip(t *testing.T) {
	records := makeRecords(7)
	when := time.Date(2018, 3, 1, 12, 0, 0, 0, time.UTC)
	groups := [][]*netdb.RouterInfo{
		records[0:3],
		nil, // a slot the partition cannot serve
		records[3:7],
	}
	s, err := BuildBundleSet(groups, "resident-service", when)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 || s.Signer() != "resident-service" || !s.CreatedAt().Equal(when) {
		t.Fatalf("set metadata = (%d, %q, %v)", s.Len(), s.Signer(), s.CreatedAt())
	}
	for slot, want := range groups {
		data := s.Bundle(slot)
		if len(want) == 0 {
			if data != nil {
				t.Fatalf("empty slot %d served %d bytes", slot, len(data))
			}
			continue
		}
		b, err := ParseBundle(data)
		if err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		if b.Signer != "resident-service" || !b.CreatedAt.Equal(when) {
			t.Fatalf("slot %d header = (%q, %v)", slot, b.Signer, b.CreatedAt)
		}
		if len(b.Records) != len(want) {
			t.Fatalf("slot %d carries %d records, want %d", slot, len(b.Records), len(want))
		}
		for i := range want {
			if b.Records[i].Identity != want[i].Identity {
				t.Fatalf("slot %d record %d identity mismatch", slot, i)
			}
		}
	}
	if s.Bundle(-1) != nil || s.Bundle(3) != nil {
		t.Fatal("out-of-range slots served bundles")
	}
	var nilSet *BundleSet
	if nilSet.Bundle(0) != nil {
		t.Fatal("nil set served a bundle")
	}
}
