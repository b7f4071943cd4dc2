package transport

import (
	"crypto/sha256"
	"net"
	"slices"
	"testing"
)

func testRouterHash() [32]byte {
	return sha256.Sum256([]byte("responder identity"))
}

// handshake runs both sides of the handshake over an in-memory pipe, the
// client with ccfg and the server with scfg.
func handshake(ccfg, scfg Config) (client, server *Conn, cerr, serr error) {
	cc, sc := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		server, serr = ServerHandshake(sc, scfg)
		sc.Close() // unblocks a client left mid-message
	}()
	client, cerr = ClientHandshake(cc, ccfg)
	cc.Close()
	<-done
	return client, server, cerr, serr
}

// connPair completes a handshake between a client and a server Conn.
func connPair(t *testing.T, variant Variant) (client, server *Conn) {
	t.Helper()
	cfg := Config{Variant: variant, RouterHash: testRouterHash()}
	client, server, cerr, serr := handshake(cfg, cfg)
	if cerr != nil {
		t.Fatal(cerr)
	}
	if serr != nil {
		t.Fatal(serr)
	}
	return client, server
}

func TestNTCPHandshakeSizesAreFixed(t *testing.T) {
	client, server := connPair(t, VariantNTCP)
	want := ntcpSignature[:]
	for _, c := range []*Conn{client, server} {
		got := c.HandshakeTrace()
		if len(got) != 4 {
			t.Fatalf("trace length = %d, want 4", len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("handshake message %d size = %d, want %d", i+1, got[i], want[i])
			}
		}
	}
}

func TestNTCP2HandshakeSizesVary(t *testing.T) {
	// Across several connections, NTCP2 must not always produce the
	// classic signature. (Any single run could coincide by chance with
	// probability ~(1/65)^4, so ten runs make a flaky pass impossible in
	// practice.)
	matches := 0
	traces := make(map[[4]int]bool)
	for i := 0; i < 10; i++ {
		client, _ := connPair(t, VariantNTCP2)
		got := client.HandshakeTrace()
		if ClassifyFlow(got) == ProtocolI2PNTCP {
			matches++
		}
		var key [4]int
		copy(key[:], got)
		traces[key] = true
	}
	if matches == 10 {
		t.Fatal("all NTCP2 handshakes matched the NTCP signature")
	}
	if len(traces) < 2 {
		t.Fatal("NTCP2 handshake sizes never varied")
	}
}

func TestDPIClassifier(t *testing.T) {
	if got := ClassifyFlow([]int{288, 304, 448, 48}); got != ProtocolI2PNTCP {
		t.Fatalf("exact signature = %v, want i2p-ntcp", got)
	}
	if got := ClassifyFlow([]int{288, 304, 448, 48, 512, 1024}); got != ProtocolI2PNTCP {
		t.Fatal("longer flow with matching prefix should classify")
	}
	for _, sizes := range [][]int{
		nil,
		{288},
		{288, 304, 448},
		{289, 304, 448, 48},
		{288, 304, 449, 48},
		{1500, 1500, 1500, 1500},
	} {
		if got := ClassifyFlow(sizes); got != ProtocolUnknown {
			t.Errorf("ClassifyFlow(%v) = %v, want unknown", sizes, got)
		}
	}
}

func TestMiddleboxCounters(t *testing.T) {
	var mb Middlebox
	mb.Observe([]int{288, 304, 448, 48})
	mb.Observe([]int{100, 200})
	mb.Observe([]int{288, 304, 448, 48})
	if mb.flows != 3 || mb.detected != 2 {
		t.Fatalf("flows=%d detected=%d", mb.flows, mb.detected)
	}
	if got := mb.DetectionRate(); got < 0.66 || got > 0.67 {
		t.Fatalf("rate = %v", got)
	}
	var empty Middlebox
	if empty.DetectionRate() != 0 {
		t.Fatal("empty middlebox rate should be 0")
	}
}

// TestDPIDetectsNTCPButNotNTCP2 is the paper's Section 2.2.2 experiment in
// miniature: classic NTCP flows are all fingerprinted; NTCP2 flows are not.
func TestDPIDetectsNTCPButNotNTCP2(t *testing.T) {
	var mb Middlebox
	for i := 0; i < 5; i++ {
		client, _ := connPair(t, VariantNTCP)
		mb.Observe(client.HandshakeTrace())
	}
	if mb.DetectionRate() != 1 {
		t.Fatalf("NTCP detection rate = %v, want 1", mb.DetectionRate())
	}
	var mb2 Middlebox
	for i := 0; i < 5; i++ {
		client, _ := connPair(t, VariantNTCP2)
		mb2.Observe(client.HandshakeTrace())
	}
	if mb2.DetectionRate() > 0.4 {
		t.Fatalf("NTCP2 detection rate = %v, want near 0", mb2.DetectionRate())
	}
}

func TestHandshakeFailsWithWrongRouterHash(t *testing.T) {
	good := Config{Variant: VariantNTCP, RouterHash: testRouterHash()}
	bad := good
	bad.RouterHash = sha256.Sum256([]byte("a different router"))

	// A client that thinks it is talking to a different router derives a
	// different obfuscation keystream; the handshake must fail rather than
	// silently connecting to the wrong peer.
	if _, _, cerr, serr := handshake(bad, good); cerr == nil || serr == nil {
		t.Fatalf("handshake with mismatched router hash: client err %v, server err %v", cerr, serr)
	}
}

func TestConnAccessors(t *testing.T) {
	for _, variant := range []Variant{VariantNTCP, VariantNTCP2} {
		client, server := connPair(t, variant)
		for _, c := range []*Conn{client, server} {
			if c.variant != variant {
				t.Fatalf("variant = %v, want %v", c.variant, variant)
			}
			if got := c.HandshakeTrace(); len(got) != 4 {
				t.Fatalf("%v trace = %v, want four entries", variant, got)
			}
		}
		// Both ends record the same flow.
		if c, s := client.HandshakeTrace(), server.HandshakeTrace(); !slices.Equal(c, s) {
			t.Fatalf("%v: client saw %v, server saw %v", variant, c, s)
		}
	}
}

func TestVariantStrings(t *testing.T) {
	if VariantNTCP.String() != "NTCP" || VariantNTCP2.String() != "NTCP2" {
		t.Fatal("variant strings wrong")
	}
	if Variant(9).String() == "" {
		t.Fatal("unknown variant must format")
	}
	if ProtocolI2PNTCP.String() != "i2p-ntcp" || ProtocolUnknown.String() != "unknown" {
		t.Fatal("protocol strings wrong")
	}
}
