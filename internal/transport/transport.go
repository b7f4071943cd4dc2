// Package transport implements an NTCP-style obfuscated handshake and the
// wire sizes it shows an observer. It reproduces the property the paper's
// DPI discussion hinges on (Section 2.2.2): the first four handshake
// messages of classic NTCP have fixed lengths of 288, 304, 448 and 48
// bytes, which lets flow analysis fingerprint I2P connections even though
// the payload is randomized. The NTCP2 variant (I2P proposal 111) appends
// random padding to every handshake message, defeating the size signature;
// the dpi.go classifier demonstrates both outcomes.
//
// The handshake runs over any net.Conn and performs a real X25519 key
// agreement (crypto/ecdh) that each side confirms with an HMAC bound to the
// responder's router hash. It is a faithful simplification, not the actual
// NTCP protocol, and it stops where the fingerprint does: there is no data
// framing, no listener and no dialer.
package transport

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// Classic NTCP handshake wire sizes in bytes (Section 2.2.2: "the first
// four handshake messages between I2P routers can be detected due to their
// fixed lengths of 288, 304, 448, and 48 bytes").
const (
	SessionRequestSize  = 288
	SessionCreatedSize  = 304
	SessionConfirmASize = 448
	SessionConfirmBSize = 48
)

// Variant selects the handshake framing behaviour.
type Variant int

// Transport variants.
const (
	// VariantNTCP emits the classic fixed-size handshake.
	VariantNTCP Variant = iota
	// VariantNTCP2 appends random padding to each handshake message,
	// destroying the size signature (the paper's Section 2.2.2 mentions
	// this mitigation as in development at the time).
	VariantNTCP2
)

func (v Variant) String() string {
	switch v {
	case VariantNTCP:
		return "NTCP"
	case VariantNTCP2:
		return "NTCP2"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// NTCP2 padding bounds (bytes appended per handshake message).
const (
	ntcp2PadMin = 0
	ntcp2PadMax = 64
)

// Config parameterizes a Conn.
type Config struct {
	// Variant selects classic NTCP or padded NTCP2 framing.
	Variant Variant
	// RouterHash is the responder's identity hash, known to both sides
	// before connecting (it comes from the RouterInfo). It keys the
	// handshake obfuscation, like NTCP's use of Bob's router hash.
	RouterHash [32]byte
}

// handshakeTimeout bounds a handshake.
const handshakeTimeout = 5 * time.Second

// ErrBadHandshake reports a malformed message or a failed confirmation.
var ErrBadHandshake = errors.New("transport: handshake failed")

// Conn is the outcome of a completed handshake: both ends proved knowledge
// of the shared secret, and the wire sizes were recorded. It carries no
// data channel.
type Conn struct {
	variant Variant

	// sizes of the handshake messages as seen on the wire, in order. A
	// DPI middlebox sees exactly this sequence.
	handshakeSizes []int
}

// HandshakeTrace returns the wire sizes of the handshake messages this end
// sent and received, in protocol order (request, created, confirmA,
// confirmB). It is what a passive observer of the flow records.
func (c *Conn) HandshakeTrace() []int {
	return append([]int(nil), c.handshakeSizes...)
}

// --- handshake ---

// obfuscator derives a deterministic keystream from the router hash, used
// to hide handshake structure from a passive observer who does not know
// which router is being contacted.
func obfuscator(routerHash [32]byte, label string) cipher.Stream {
	key := sha256.Sum256(append(routerHash[:], label...))
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err) // 32-byte key; cannot fail
	}
	iv := sha256.Sum256(append(routerHash[:], ("iv:" + label)...))
	return cipher.NewCTR(block, iv[:aes.BlockSize])
}

// writeHandshakeMsg frames body into a handshake message. For classic NTCP
// the wire size is exactly fixedSize; for NTCP2, body plus random padding.
// The 2-byte body length and the body are obfuscated with the router-hash
// keystream; padding is crypto/rand noise.
func writeHandshakeMsg(w io.Writer, body []byte, fixedSize int, variant Variant, routerHash [32]byte, label string) (int, error) {
	need := 2 + len(body)
	var wire int
	switch variant {
	case VariantNTCP:
		wire = fixedSize
		if need > fixedSize {
			return 0, fmt.Errorf("transport: handshake body %d exceeds fixed size %d", len(body), fixedSize)
		}
	case VariantNTCP2:
		// The body already carries its padding (padBodyNTCP2); the wire
		// message is exactly the framed body so the reader knows where
		// the next message starts.
		wire = need
	default:
		return 0, fmt.Errorf("transport: unknown variant %v", variant)
	}
	msg := make([]byte, wire)
	binary.BigEndian.PutUint16(msg[:2], uint16(len(body)))
	copy(msg[2:], body)
	if _, err := rand.Read(msg[need:]); err != nil {
		return 0, err
	}
	obfuscator(routerHash, label).XORKeyStream(msg[:need], msg[:need])
	if _, err := w.Write(msg); err != nil {
		return 0, err
	}
	return wire, nil
}

// readHandshakeMsg reads one handshake message written by writeHandshakeMsg.
func readHandshakeMsg(r io.Reader, fixedSize int, variant Variant, routerHash [32]byte, label string) (body []byte, wire int, err error) {
	stream := obfuscator(routerHash, label)
	var hdr [2]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, err
	}
	stream.XORKeyStream(hdr[:], hdr[:])
	n := int(binary.BigEndian.Uint16(hdr[:]))
	if n > 4096 {
		return nil, 0, ErrBadHandshake
	}
	body = make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, 0, err
	}
	stream.XORKeyStream(body, body)
	switch variant {
	case VariantNTCP:
		// Consume the fixed-size junk tail.
		junk := fixedSize - 2 - n
		if junk < 0 {
			return nil, 0, ErrBadHandshake
		}
		if _, err := io.CopyN(io.Discard, r, int64(junk)); err != nil {
			return nil, 0, err
		}
		return body, fixedSize, nil
	case VariantNTCP2:
		// NTCP2 receivers know the pad length from context in the real
		// protocol; here the pad is only read lazily by the next message
		// boundary, so we encode it in the first body byte region
		// instead: the sender places pad length in... — see note below.
		return body, 2 + n, nil
	default:
		return nil, 0, ErrBadHandshake
	}
}

// Note on NTCP2 padding: writeHandshakeMsg appends pad bytes after the
// body, but readHandshakeMsg must know how many to skip. We sidestep the
// bookkeeping by making the pad part of the *body* for NTCP2: the helper
// below wraps a body with its padding before writing.
func padBodyNTCP2(body []byte) ([]byte, error) {
	var padByte [1]byte
	if _, err := rand.Read(padByte[:]); err != nil {
		return nil, err
	}
	pad := ntcp2PadMin + int(padByte[0])%(ntcp2PadMax-ntcp2PadMin+1)
	padded := make([]byte, 2+len(body)+pad)
	binary.BigEndian.PutUint16(padded[:2], uint16(len(body)))
	copy(padded[2:], body)
	if _, err := rand.Read(padded[2+len(body):]); err != nil {
		return nil, err
	}
	return padded, nil
}

func unpadBodyNTCP2(padded []byte) ([]byte, error) {
	if len(padded) < 2 {
		return nil, ErrBadHandshake
	}
	n := int(binary.BigEndian.Uint16(padded[:2]))
	if 2+n > len(padded) {
		return nil, ErrBadHandshake
	}
	return padded[2 : 2+n], nil
}

// sendMsg writes one handshake message, dispatching on variant. It returns
// the wire size.
func sendMsg(w io.Writer, body []byte, fixedSize int, cfg Config, label string) (int, error) {
	if cfg.Variant == VariantNTCP2 {
		padded, err := padBodyNTCP2(body)
		if err != nil {
			return 0, err
		}
		return writeHandshakeMsg(w, padded, 0, VariantNTCP2, cfg.RouterHash, label)
	}
	return writeHandshakeMsg(w, body, fixedSize, VariantNTCP, cfg.RouterHash, label)
}

// recvMsg reads one handshake message, dispatching on variant.
func recvMsg(r io.Reader, fixedSize int, cfg Config, label string) ([]byte, int, error) {
	body, wire, err := readHandshakeMsg(r, fixedSize, cfg.Variant, cfg.RouterHash, label)
	if err != nil {
		return nil, 0, err
	}
	if cfg.Variant == VariantNTCP2 {
		inner, err := unpadBodyNTCP2(body)
		if err != nil {
			return nil, 0, err
		}
		return inner, wire, nil
	}
	return body, wire, nil
}

// ClientHandshake runs the initiator side over an established net.Conn.
func ClientHandshake(nc net.Conn, cfg Config) (*Conn, error) {
	deadline := time.Now().Add(handshakeTimeout)
	if err := nc.SetDeadline(deadline); err != nil {
		return nil, err
	}
	defer nc.SetDeadline(time.Time{})

	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	var sizes []int

	// Message 1: SessionRequest — client ephemeral public key.
	n, err := sendMsg(nc, priv.PublicKey().Bytes(), SessionRequestSize, cfg, "msg1")
	if err != nil {
		return nil, err
	}
	sizes = append(sizes, n)

	// Message 2: SessionCreated — server ephemeral public key.
	body, n, err := recvMsg(nc, SessionCreatedSize, cfg, "msg2")
	if err != nil {
		return nil, err
	}
	sizes = append(sizes, n)
	serverPub, err := ecdh.X25519().NewPublicKey(body)
	if err != nil {
		return nil, fmt.Errorf("%w: bad server key", ErrBadHandshake)
	}
	secret, err := priv.ECDH(serverPub)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadHandshake, err)
	}

	// Message 3: SessionConfirmA — prove knowledge of the shared secret
	// bound to the responder's router hash.
	mac := hmac.New(sha256.New, secret)
	mac.Write(cfg.RouterHash[:])
	mac.Write([]byte("confirm-a"))
	n, err = sendMsg(nc, mac.Sum(nil), SessionConfirmASize, cfg, "msg3")
	if err != nil {
		return nil, err
	}
	sizes = append(sizes, n)

	// Message 4: SessionConfirmB — server's confirmation.
	body, n, err = recvMsg(nc, SessionConfirmBSize, cfg, "msg4")
	if err != nil {
		return nil, err
	}
	sizes = append(sizes, n)
	mac = hmac.New(sha256.New, secret)
	mac.Write(cfg.RouterHash[:])
	mac.Write([]byte("confirm-b"))
	if !hmac.Equal(body, mac.Sum(nil)) {
		return nil, fmt.Errorf("%w: server confirmation mismatch", ErrBadHandshake)
	}

	return &Conn{variant: cfg.Variant, handshakeSizes: sizes}, nil
}

// ServerHandshake runs the responder side over an established net.Conn.
func ServerHandshake(nc net.Conn, cfg Config) (*Conn, error) {
	deadline := time.Now().Add(handshakeTimeout)
	if err := nc.SetDeadline(deadline); err != nil {
		return nil, err
	}
	defer nc.SetDeadline(time.Time{})

	var sizes []int
	body, n, err := recvMsg(nc, SessionRequestSize, cfg, "msg1")
	if err != nil {
		return nil, err
	}
	sizes = append(sizes, n)
	clientPub, err := ecdh.X25519().NewPublicKey(body)
	if err != nil {
		return nil, fmt.Errorf("%w: bad client key", ErrBadHandshake)
	}

	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	n, err = sendMsg(nc, priv.PublicKey().Bytes(), SessionCreatedSize, cfg, "msg2")
	if err != nil {
		return nil, err
	}
	sizes = append(sizes, n)

	secret, err := priv.ECDH(clientPub)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadHandshake, err)
	}

	body, n, err = recvMsg(nc, SessionConfirmASize, cfg, "msg3")
	if err != nil {
		return nil, err
	}
	sizes = append(sizes, n)
	mac := hmac.New(sha256.New, secret)
	mac.Write(cfg.RouterHash[:])
	mac.Write([]byte("confirm-a"))
	if !hmac.Equal(body, mac.Sum(nil)) {
		return nil, fmt.Errorf("%w: client confirmation mismatch", ErrBadHandshake)
	}

	mac = hmac.New(sha256.New, secret)
	mac.Write(cfg.RouterHash[:])
	mac.Write([]byte("confirm-b"))
	n, err = sendMsg(nc, mac.Sum(nil), SessionConfirmBSize, cfg, "msg4")
	if err != nil {
		return nil, err
	}
	sizes = append(sizes, n)

	return &Conn{variant: cfg.Variant, handshakeSizes: sizes}, nil
}
