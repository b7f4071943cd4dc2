// Package reseed implements I2P's bootstrapping infrastructure: reseed
// servers that hand a bounded, per-source-sticky set of RouterInfos to new
// peers (Section 4: "reseed servers are designed so that they only provide
// the same set of RouterInfos if the requesting source is the same"), the
// su3-style signed seed bundle, and the manual-reseed escape hatch the
// paper discusses for censored users (Section 6.1: every active peer can
// create an i2pseeds.su3 file and share it out of band).
package reseed

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"sync"
	"time"

	"github.com/i2pstudy/i2pstudy/internal/netdb"
)

// DefaultPerRequest is how many RouterInfos one reseed server returns per
// request: "a newly joined peer fetches around 150 RouterInfos from two
// reseed servers (roughly 75 RouterInfos from each server)" (Section 4.2).
const DefaultPerRequest = 75

// DefaultServerCount is how many reseed servers a bootstrapping client
// contacts.
const DefaultServerCount = 2

// SeedFileName is the conventional name of a manual reseed bundle.
const SeedFileName = "i2pseeds.su3"

// Provider supplies the reseed server's current view of live RouterInfos.
type Provider func() []*netdb.RouterInfo

// Server is one reseed server. It is safe for concurrent use.
type Server struct {
	perRequest int
	provider   Provider

	mu       sync.Mutex
	rng      *rand.Rand
	assigned map[string][]netdb.Hash
}

// NewServer returns a reseed server that serves perRequest records per
// source from provider. seed makes the per-source sampling deterministic.
func NewServer(perRequest int, provider Provider, seed uint64) *Server {
	if perRequest <= 0 {
		perRequest = DefaultPerRequest
	}
	return &Server{
		perRequest: perRequest,
		provider:   provider,
		rng:        rand.New(rand.NewPCG(seed, seed^0xA5A5A5A5)),
		assigned:   make(map[string][]netdb.Hash),
	}
}

// Fetch returns the RouterInfo set for the requesting source. The first
// request from a source samples a random subset; repeat requests return the
// same hashes (minus any that have left the network), which is the
// anti-harvesting behaviour the paper describes.
func (s *Server) Fetch(source string) []*netdb.RouterInfo {
	live := s.provider()
	byHash := make(map[netdb.Hash]*netdb.RouterInfo, len(live))
	for _, ri := range live {
		byHash[ri.Identity] = ri
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	hashes, ok := s.assigned[source]
	if !ok {
		// Sample without replacement.
		perm := s.rng.Perm(len(live))
		n := s.perRequest
		if n > len(live) {
			n = len(live)
		}
		hashes = make([]netdb.Hash, 0, n)
		for _, idx := range perm[:n] {
			hashes = append(hashes, live[idx].Identity)
		}
		s.assigned[source] = hashes
	}
	out := make([]*netdb.RouterInfo, 0, len(hashes))
	for _, h := range hashes {
		if ri := byHash[h]; ri != nil {
			out = append(out, ri)
		}
	}
	return out
}

// Bootstrap fetches from up to DefaultServerCount of the given servers and
// merges the results, dropping duplicates — the newly-joining-peer path of
// Section 4.2. It returns an error when no server is usable (the censored
// scenario of Section 6.1).
func Bootstrap(servers []*Server, source string) ([]*netdb.RouterInfo, error) {
	if len(servers) == 0 {
		return nil, errors.New("reseed: no reachable reseed servers")
	}
	n := DefaultServerCount
	if n > len(servers) {
		n = len(servers)
	}
	seen := make(map[netdb.Hash]bool)
	var out []*netdb.RouterInfo
	for _, srv := range servers[:n] {
		for _, ri := range srv.Fetch(source) {
			if !seen[ri.Identity] {
				seen[ri.Identity] = true
				out = append(out, ri)
			}
		}
	}
	if len(out) == 0 {
		return nil, errors.New("reseed: reseed servers returned no records")
	}
	return out, nil
}

// --- su3-style bundles ---

var bundleMagic = [4]byte{'S', 'U', '3', 'S'}

// Bundle codec errors.
var (
	ErrBadBundle    = errors.New("reseed: malformed seed bundle")
	ErrBadSignature = errors.New("reseed: bundle signature mismatch")
)

// Bundle is a parsed seed bundle.
type Bundle struct {
	Signer    string
	CreatedAt time.Time
	Records   []*netdb.RouterInfo
}

// signingTag computes the bundle's integrity tag. Real su3 files carry an
// RSA signature from a known reseed operator; the keyed hash is the
// offline substitute.
func signingTag(body []byte, signer string) [32]byte {
	key := sha256.Sum256([]byte("reseed-signer:" + signer))
	h := sha256.New()
	h.Write(key[:])
	h.Write(body)
	var tag [32]byte
	copy(tag[:], h.Sum(nil))
	return tag
}

// CreateBundle serializes records into a signed seed bundle. Any active
// peer can do this — it is the manual-reseed feature of Section 6.1.
func CreateBundle(records []*netdb.RouterInfo, signer string, now time.Time) ([]byte, error) {
	if len(records) == 0 {
		return nil, errors.New("reseed: refusing to create an empty bundle")
	}
	if len(records) > 65535 {
		return nil, errors.New("reseed: too many records for one bundle")
	}
	var buf bytes.Buffer
	buf.Write(bundleMagic[:])
	if len(signer) > 255 {
		return nil, errors.New("reseed: signer name too long")
	}
	buf.WriteByte(uint8(len(signer)))
	buf.WriteString(signer)
	var ts [8]byte
	binary.BigEndian.PutUint64(ts[:], uint64(now.UTC().UnixMilli()))
	buf.Write(ts[:])
	var cnt [2]byte
	binary.BigEndian.PutUint16(cnt[:], uint16(len(records)))
	buf.Write(cnt[:])
	for _, ri := range records {
		data, err := ri.Encode()
		if err != nil {
			return nil, fmt.Errorf("reseed: encode %s: %w", ri.Identity.Short(), err)
		}
		var l [4]byte
		binary.BigEndian.PutUint32(l[:], uint32(len(data)))
		buf.Write(l[:])
		buf.Write(data)
	}
	tag := signingTag(buf.Bytes(), signer)
	buf.Write(tag[:])
	return buf.Bytes(), nil
}

// ParseBundle verifies and decodes a bundle produced by CreateBundle. It
// accepts no bundle CreateBundle would refuse to make: one with no
// records is malformed, however it is signed.
func ParseBundle(data []byte) (*Bundle, error) {
	if len(data) < 4+1+8+2+32 {
		return nil, ErrBadBundle
	}
	body, tag := data[:len(data)-32], data[len(data)-32:]
	if !bytes.Equal(body[:4], bundleMagic[:]) {
		return nil, ErrBadBundle
	}
	off := 4
	nameLen := int(body[off])
	off++
	if off+nameLen > len(body) {
		return nil, ErrBadBundle
	}
	signer := string(body[off : off+nameLen])
	off += nameLen
	want := signingTag(body, signer)
	if !bytes.Equal(tag, want[:]) {
		return nil, ErrBadSignature
	}
	if off+10 > len(body) {
		return nil, ErrBadBundle
	}
	createdMilli := binary.BigEndian.Uint64(body[off : off+8])
	off += 8
	count := int(binary.BigEndian.Uint16(body[off : off+2]))
	off += 2
	if count == 0 {
		return nil, ErrBadBundle
	}
	b := &Bundle{
		Signer:    signer,
		CreatedAt: time.UnixMilli(int64(createdMilli)).UTC(),
	}
	for i := 0; i < count; i++ {
		if off+4 > len(body) {
			return nil, ErrBadBundle
		}
		l := int(binary.BigEndian.Uint32(body[off : off+4]))
		off += 4
		if off+l > len(body) {
			return nil, ErrBadBundle
		}
		ri, err := netdb.DecodeRouterInfo(body[off : off+l])
		if err != nil {
			return nil, fmt.Errorf("reseed: record %d: %w", i, err)
		}
		off += l
		b.Records = append(b.Records, ri)
	}
	if off != len(body) {
		return nil, ErrBadBundle
	}
	return b, nil
}

// WriteSeedFile writes a bundle to path (conventionally SeedFileName) for
// out-of-band sharing.
func WriteSeedFile(path string, records []*netdb.RouterInfo, signer string, now time.Time) error {
	data, err := CreateBundle(records, signer, now)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ReadSeedFile reads and verifies a bundle written by WriteSeedFile.
func ReadSeedFile(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseBundle(data)
}
