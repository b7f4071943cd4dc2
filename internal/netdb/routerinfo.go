package netdb

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"time"
)

// Transport names used in RouterAddress records. NTCP is the TCP transport
// whose first four handshake messages have the fixed lengths the paper
// discusses (288, 304, 448 and 48 bytes); SSU is the UDP transport that
// carries the introducer mechanism for firewalled peers.
const (
	TransportNTCP = "NTCP"
	TransportSSU  = "SSU"
)

// Introducer is a third-party introduction point published by a firewalled
// peer (Section 5.1): a reachable router that relays hole-punching requests.
// The presence of introducers with valid IP addresses is what distinguishes
// a firewalled peer from a hidden one in the paper's classification.
type Introducer struct {
	// Hash identifies the introducer router.
	Hash Hash
	// Tag is the introduction tag the introducer allocated for this peer.
	Tag uint32
	// Addr and Port are the introducer's public contact address.
	Addr netip.Addr
	Port uint16
}

// RouterAddress is one published transport address of a router. A
// firewalled router publishes an SSU address with no IP but with
// introducers; a hidden router publishes no addresses at all.
type RouterAddress struct {
	// Transport is TransportNTCP or TransportSSU.
	Transport string
	// Cost orders addresses by preference; lower is preferred.
	Cost uint8
	// Expiration is carried on the wire but, as the paper notes about the
	// live network, "it is not currently used" (Section 4.3): decoders
	// must not treat an old expiration as invalidating the address.
	Expiration time.Time
	// Addr is the public IP. The zero Addr means the field is absent,
	// which is how firewalled and hidden peers appear.
	Addr netip.Addr
	// Port is the transport port. I2P uses arbitrary ports in 9000–31000.
	Port uint16
	// Introducers is non-empty only for firewalled SSU addresses.
	Introducers []Introducer
}

// HasIP reports whether the address carries a valid public IP.
func (a *RouterAddress) HasIP() bool { return a.Addr.IsValid() }

// RouterInfo is the netDb record describing one router: its identity hash,
// publication time, capacity flags, transport addresses and options. It is
// the unit of everything the paper measures — "a peer is defined by a
// unique hash value encapsulated in its RouterInfo" (Section 4.1).
type RouterInfo struct {
	// Identity is the router's permanent identity hash, "generated the
	// first time the I2P router software is installed" (Section 5.1).
	Identity Hash
	// Published is when the router last published this record. Floodfills
	// expire local copies one hour after this time.
	Published time.Time
	// Caps is the parsed capacity field.
	Caps Caps
	// Version is the router software version string, e.g. "0.9.34".
	Version string
	// Addresses lists published transport addresses.
	Addresses []RouterAddress
	// Options carries auxiliary key=value pairs (netdb stats, etc.).
	Options map[string]string
}

// Clone returns a deep copy of the record.
func (ri *RouterInfo) Clone() *RouterInfo {
	out := *ri
	out.Addresses = make([]RouterAddress, len(ri.Addresses))
	for i, a := range ri.Addresses {
		out.Addresses[i] = a
		out.Addresses[i].Introducers = append([]Introducer(nil), a.Introducers...)
	}
	if ri.Options != nil {
		out.Options = make(map[string]string, len(ri.Options))
		for k, v := range ri.Options {
			out.Options[k] = v
		}
	}
	return &out
}

// IPs returns the set of valid public IPs across all addresses, in stable
// order, without duplicates.
func (ri *RouterInfo) IPs() []netip.Addr {
	seen := make(map[netip.Addr]bool, len(ri.Addresses))
	var out []netip.Addr
	for i := range ri.Addresses {
		a := ri.Addresses[i].Addr
		if a.IsValid() && !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// HasKnownIP reports whether any address publishes a valid public IP.
// Peers for which this is false are the paper's "unknown-IP" group
// (Section 5.1).
func (ri *RouterInfo) HasKnownIP() bool {
	for i := range ri.Addresses {
		if ri.Addresses[i].HasIP() {
			return true
		}
	}
	return false
}

// HasIPv4 reports whether the router publishes an IPv4 address.
func (ri *RouterInfo) HasIPv4() bool {
	for i := range ri.Addresses {
		if a := ri.Addresses[i].Addr; a.IsValid() && a.Is4() {
			return true
		}
	}
	return false
}

// HasIPv6 reports whether the router publishes an IPv6 address.
func (ri *RouterInfo) HasIPv6() bool {
	for i := range ri.Addresses {
		if a := ri.Addresses[i].Addr; a.IsValid() && a.Is6() && !a.Is4In6() {
			return true
		}
	}
	return false
}

// Introducers returns all introducers across addresses.
func (ri *RouterInfo) Introducers() []Introducer {
	var out []Introducer
	for i := range ri.Addresses {
		out = append(out, ri.Addresses[i].Introducers...)
	}
	return out
}

// Firewalled reports whether the router is the paper's "firewalled" type:
// it publishes no usable IP of its own but does publish introducers whose
// contact information carries valid IPs ("A firewalled peer has information
// about its introducers embedded in the RouterInfo", Section 5.1).
func (ri *RouterInfo) Firewalled() bool {
	if ri.HasKnownIP() {
		return false
	}
	for i := range ri.Addresses {
		for _, in := range ri.Addresses[i].Introducers {
			if in.Addr.IsValid() {
				return true
			}
		}
	}
	return false
}

// HiddenPeer reports whether the router is the paper's "hidden" type: no
// usable IP and no introducers ("a hidden peer does not", Section 5.1).
// The explicit H capacity flag also marks a peer hidden.
func (ri *RouterInfo) HiddenPeer() bool {
	if ri.Caps.Hidden {
		return true
	}
	return !ri.HasKnownIP() && !ri.Firewalled()
}

// UnknownIP reports whether the peer belongs to the unknown-IP group
// (firewalled or hidden).
func (ri *RouterInfo) UnknownIP() bool { return !ri.HasKnownIP() }

// riMagic prefixes every encoded RouterInfo.
var riMagic = [4]byte{'R', 'I', '0', '1'}

// Codec errors.
var (
	ErrBadMagic     = errors.New("netdb: bad record magic")
	ErrBadChecksum  = errors.New("netdb: integrity tag mismatch")
	ErrTruncated    = errors.New("netdb: truncated record")
	ErrFieldTooLong = errors.New("netdb: field exceeds length limit")
)

type wireWriter struct {
	buf bytes.Buffer
}

func (w *wireWriter) u8(v uint8) { w.buf.WriteByte(v) }
func (w *wireWriter) u16(v uint16) {
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], v)
	w.buf.Write(b[:])
}
func (w *wireWriter) u32(v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	w.buf.Write(b[:])
}
func (w *wireWriter) u64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	w.buf.Write(b[:])
}
func (w *wireWriter) hash(h Hash) { w.buf.Write(h[:]) }

func (w *wireWriter) timeMilli(t time.Time) {
	if t.IsZero() {
		w.u64(0)
		return
	}
	w.u64(uint64(t.UnixMilli()))
}

func (w *wireWriter) str(s string) error {
	if len(s) > 255 {
		return ErrFieldTooLong
	}
	w.u8(uint8(len(s)))
	w.buf.WriteString(s)
	return nil
}

func (w *wireWriter) ip(a netip.Addr) {
	if !a.IsValid() {
		w.u8(0)
		return
	}
	b := a.AsSlice()
	w.u8(uint8(len(b)))
	w.buf.Write(b)
}

type wireReader struct {
	b   []byte
	off int
	err error
}

func (r *wireReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *wireReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.b) {
		r.fail(ErrTruncated)
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *wireReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *wireReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *wireReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *wireReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *wireReader) hash() Hash {
	var h Hash
	b := r.take(HashSize)
	if b != nil {
		copy(h[:], b)
	}
	return h
}

func (r *wireReader) timeMilli() time.Time {
	v := r.u64()
	if v == 0 || r.err != nil {
		return time.Time{}
	}
	return time.UnixMilli(int64(v)).UTC()
}

func (r *wireReader) str() string {
	n := int(r.u8())
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

func (r *wireReader) ip() netip.Addr {
	n := int(r.u8())
	if n == 0 {
		return netip.Addr{}
	}
	b := r.take(n)
	if b == nil {
		return netip.Addr{}
	}
	a, ok := netip.AddrFromSlice(b)
	if !ok {
		r.fail(fmt.Errorf("netdb: invalid IP length %d", n))
		return netip.Addr{}
	}
	return a
}

// Encode serializes the RouterInfo into the study's wire format and appends
// a SHA-256 integrity tag. Real I2P records carry an EdDSA signature; the
// tag is the offline substitute — it exercises the same "verify before
// store" path without a key infrastructure.
func (ri *RouterInfo) Encode() ([]byte, error) {
	var w wireWriter
	w.buf.Write(riMagic[:])
	w.hash(ri.Identity)
	w.timeMilli(ri.Published)
	if err := w.str(ri.Caps.Encode()); err != nil {
		return nil, err
	}
	if err := w.str(ri.Version); err != nil {
		return nil, err
	}
	if len(ri.Addresses) > 255 {
		return nil, ErrFieldTooLong
	}
	w.u8(uint8(len(ri.Addresses)))
	for i := range ri.Addresses {
		a := &ri.Addresses[i]
		if err := w.str(a.Transport); err != nil {
			return nil, err
		}
		w.u8(a.Cost)
		w.timeMilli(a.Expiration)
		w.ip(a.Addr)
		w.u16(a.Port)
		if len(a.Introducers) > 255 {
			return nil, ErrFieldTooLong
		}
		w.u8(uint8(len(a.Introducers)))
		for _, in := range a.Introducers {
			w.hash(in.Hash)
			w.u32(in.Tag)
			w.ip(in.Addr)
			w.u16(in.Port)
		}
	}
	// Options sorted for deterministic output.
	keys := make([]string, 0, len(ri.Options))
	for k := range ri.Options {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) > 255 {
		return nil, ErrFieldTooLong
	}
	w.u8(uint8(len(keys)))
	for _, k := range keys {
		if err := w.str(k); err != nil {
			return nil, err
		}
		if err := w.str(ri.Options[k]); err != nil {
			return nil, err
		}
	}
	payload := w.buf.Bytes()
	tag := sha256.Sum256(payload)
	return append(payload, tag[:]...), nil
}

// DecodeRouterInfo parses a record produced by Encode, verifying the
// integrity tag.
func DecodeRouterInfo(data []byte) (*RouterInfo, error) {
	if len(data) < len(riMagic)+HashSize {
		return nil, ErrTruncated
	}
	body, tag := data[:len(data)-HashSize], data[len(data)-HashSize:]
	sum := sha256.Sum256(body)
	if !bytes.Equal(sum[:], tag) {
		return nil, ErrBadChecksum
	}
	r := &wireReader{b: body}
	if m := r.take(4); m == nil || !bytes.Equal(m, riMagic[:]) {
		return nil, ErrBadMagic
	}
	ri := &RouterInfo{}
	ri.Identity = r.hash()
	ri.Published = r.timeMilli()
	capsStr := r.str()
	ri.Version = r.str()
	nAddr := int(r.u8())
	for i := 0; i < nAddr && r.err == nil; i++ {
		var a RouterAddress
		a.Transport = r.str()
		a.Cost = r.u8()
		a.Expiration = r.timeMilli()
		a.Addr = r.ip()
		a.Port = r.u16()
		nIntro := int(r.u8())
		for j := 0; j < nIntro && r.err == nil; j++ {
			var in Introducer
			in.Hash = r.hash()
			in.Tag = r.u32()
			in.Addr = r.ip()
			in.Port = r.u16()
			a.Introducers = append(a.Introducers, in)
		}
		ri.Addresses = append(ri.Addresses, a)
	}
	nOpts := int(r.u8())
	if nOpts > 0 {
		ri.Options = make(map[string]string, nOpts)
		for i := 0; i < nOpts && r.err == nil; i++ {
			k := r.str()
			v := r.str()
			ri.Options[k] = v
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("netdb: %d trailing bytes after RouterInfo", len(body)-r.off)
	}
	caps, err := ParseCaps(capsStr)
	if err != nil {
		return nil, err
	}
	ri.Caps = caps
	if ri.Identity.IsZero() {
		return nil, ErrBadHash
	}
	return ri, nil
}
