package reseed

import (
	"fmt"
	"time"

	"github.com/i2pstudy/i2pstudy/internal/netdb"
)

// BundleSet is an immutable table of pre-built signed seed bundles, one
// per handout group. The resident distributor service serves the
// manual-reseed frontend from one of these: the frontend's grants never
// rotate, so a partition of n resources has exactly n distinct handouts
// — encode each once at build time and the hot path becomes a slice
// lookup instead of a per-request CreateBundle. A BundleSet is immutable
// after BuildBundleSet and safe for unbounded concurrent use; the service
// publishes a rebuilt set as part of its next serving epoch.
type BundleSet struct {
	signer string
	when   time.Time
	data   [][]byte
}

// BuildBundleSet encodes one bundle per record group. Empty groups get a
// nil bundle (a slot the partition cannot serve); any encodable-record
// failure aborts the build, matching CreateBundle's refusal to sign what
// the codec would reject.
func BuildBundleSet(groups [][]*netdb.RouterInfo, signer string, now time.Time) (*BundleSet, error) {
	s := &BundleSet{signer: signer, when: now, data: make([][]byte, len(groups))}
	for i, records := range groups {
		if len(records) == 0 {
			continue
		}
		data, err := CreateBundle(records, signer, now)
		if err != nil {
			return nil, fmt.Errorf("reseed: bundle set slot %d: %w", i, err)
		}
		s.data[i] = data
	}
	return s, nil
}

// Len returns the number of slots.
func (s *BundleSet) Len() int { return len(s.data) }

// Signer returns the signer every bundle in the set carries.
func (s *BundleSet) Signer() string { return s.signer }

// CreatedAt returns the timestamp every bundle in the set carries.
func (s *BundleSet) CreatedAt() time.Time { return s.when }

// Bundle returns the encoded bundle for a slot, nil when the slot is out
// of range or was built from an empty group. Callers must not modify the
// returned bytes.
func (s *BundleSet) Bundle(slot int) []byte {
	if s == nil || slot < 0 || slot >= len(s.data) {
		return nil
	}
	return s.data[slot]
}
