package netdb

import (
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func sampleRouterInfo() *RouterInfo {
	return &RouterInfo{
		Identity:  HashFromUint64(100),
		Published: time.Date(2018, 2, 3, 4, 5, 6, 0, time.UTC),
		Caps:      NewCaps(200, true, true),
		Version:   "0.9.34",
		Addresses: []RouterAddress{
			{
				Transport: TransportNTCP,
				Cost:      10,
				Addr:      netip.MustParseAddr("203.0.113.7"),
				Port:      12345,
			},
			{
				Transport: TransportSSU,
				Cost:      5,
				Addr:      netip.MustParseAddr("2001:db8::7"),
				Port:      23456,
			},
		},
		Options: map[string]string{"netdb.knownRouters": "1234"},
	}
}

func sampleFirewalledRouterInfo() *RouterInfo {
	return &RouterInfo{
		Identity:  HashFromUint64(101),
		Published: time.Date(2018, 2, 3, 4, 5, 6, 0, time.UTC),
		Caps:      NewCaps(20, false, false),
		Version:   "0.9.33",
		Addresses: []RouterAddress{
			{
				Transport: TransportSSU,
				Cost:      5,
				Introducers: []Introducer{
					{
						Hash: HashFromUint64(55),
						Tag:  99,
						Addr: netip.MustParseAddr("198.51.100.9"),
						Port: 9999,
					},
				},
			},
		},
	}
}

func TestRouterInfoRoundTrip(t *testing.T) {
	for _, ri := range []*RouterInfo{sampleRouterInfo(), sampleFirewalledRouterInfo()} {
		data, err := ri.Encode()
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		got, err := DecodeRouterInfo(data)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if !reflect.DeepEqual(got, ri) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, ri)
		}
	}
}

func TestRouterInfoDecodeRejectsCorruption(t *testing.T) {
	ri := sampleRouterInfo()
	data, err := ri.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte anywhere in the body: the integrity tag must catch it.
	for _, pos := range []int{0, 5, 40, len(data) / 2, len(data) - HashSize - 1} {
		bad := append([]byte(nil), data...)
		bad[pos] ^= 0xFF
		if _, err := DecodeRouterInfo(bad); err == nil {
			t.Errorf("corruption at byte %d not detected", pos)
		}
	}
	// Truncation.
	for _, n := range []int{0, 3, 10, len(data) - 1} {
		if _, err := DecodeRouterInfo(data[:n]); err == nil {
			t.Errorf("truncation to %d bytes not detected", n)
		}
	}
}

func TestRouterInfoClassification(t *testing.T) {
	known := sampleRouterInfo()
	if !known.HasKnownIP() || known.UnknownIP() || known.Firewalled() || known.HiddenPeer() {
		t.Fatal("known-IP peer misclassified")
	}
	if !known.HasIPv4() || !known.HasIPv6() {
		t.Fatal("dual-stack peer should report both IPv4 and IPv6")
	}

	fw := sampleFirewalledRouterInfo()
	if fw.HasKnownIP() || !fw.UnknownIP() {
		t.Fatal("firewalled peer should be unknown-IP")
	}
	if !fw.Firewalled() {
		t.Fatal("peer with introducers should classify as firewalled")
	}
	if fw.HiddenPeer() {
		t.Fatal("firewalled peer should not classify as hidden")
	}

	hidden := &RouterInfo{
		Identity:  HashFromUint64(102),
		Published: time.Now().UTC(),
		Caps:      NewCaps(20, false, false),
	}
	if !hidden.HiddenPeer() || hidden.Firewalled() {
		t.Fatal("address-less peer should classify as hidden")
	}

	// A peer flagged H is hidden even with an address published (status
	// changing between firewalled and hidden is the Figure 6 overlap).
	flagged := sampleFirewalledRouterInfo()
	flagged.Caps.Hidden = true
	if !flagged.HiddenPeer() || !flagged.Firewalled() {
		t.Fatal("H-flagged firewalled peer should be in both groups")
	}
}

// TestFirewalledDoesNotAllocate: the classification walks the introducers
// where they are. It used to collect them into a fresh slice first, once
// per record of every inventory scan, and an introducer with no valid
// address still does not make a peer firewalled.
func TestFirewalledDoesNotAllocate(t *testing.T) {
	fw := sampleFirewalledRouterInfo()
	var got bool
	if n := testing.AllocsPerRun(100, func() { got = fw.Firewalled() && !fw.HiddenPeer() }); n != 0 {
		t.Errorf("Firewalled allocates %v times per call", n)
	}
	if !got {
		t.Fatal("firewalled sample misclassified")
	}
	for i := range fw.Addresses {
		for j := range fw.Addresses[i].Introducers {
			fw.Addresses[i].Introducers[j].Addr = netip.Addr{}
		}
	}
	if fw.Firewalled() || !fw.HiddenPeer() {
		t.Fatal("a peer whose introducers carry no address should classify as hidden, not firewalled")
	}
}

func TestRouterInfoClone(t *testing.T) {
	ri := sampleFirewalledRouterInfo()
	ri.Options = map[string]string{"a": "b"}
	c := ri.Clone()
	c.Addresses[0].Introducers[0].Tag = 1
	c.Options["a"] = "z"
	if ri.Addresses[0].Introducers[0].Tag == 1 {
		t.Fatal("Clone shares introducer slice")
	}
	if ri.Options["a"] == "z" {
		t.Fatal("Clone shares options map")
	}
}

func TestLeaseSetRoundTrip(t *testing.T) {
	ls := &LeaseSet{
		Destination: HashFromUint64(200),
		Published:   time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC),
		Leases: []Lease{
			{Gateway: HashFromUint64(1), TunnelID: 42, Expires: time.Date(2018, 3, 1, 0, 10, 0, 0, time.UTC)},
			{Gateway: HashFromUint64(2), TunnelID: 43, Expires: time.Date(2018, 3, 1, 0, 11, 0, 0, time.UTC)},
		},
	}
	data, err := ls.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeLeaseSet(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ls) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, ls)
	}
}

func TestLeaseSetExpiry(t *testing.T) {
	now := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	ls := &LeaseSet{
		Destination: HashFromUint64(200),
		Leases: []Lease{
			{Gateway: HashFromUint64(1), Expires: now.Add(5 * time.Minute)},
			{Gateway: HashFromUint64(2), Expires: now.Add(10 * time.Minute)},
		},
	}
	if ls.Expired(now) {
		t.Fatal("live lease set reported expired")
	}
	if !ls.Expired(now.Add(11 * time.Minute)) {
		t.Fatal("expired lease set reported live")
	}
	if got := ls.Latest(); !got.Equal(now.Add(10 * time.Minute)) {
		t.Fatalf("Latest = %v", got)
	}
}

// TestRouterInfoQuickRoundTrip drives the codec with generated identities,
// ports and flag combinations.
func TestRouterInfoQuickRoundTrip(t *testing.T) {
	f := func(id uint64, rate uint16, port uint16, ff, reach bool, hasV4, hasV6 bool) bool {
		ri := &RouterInfo{
			Identity:  HashFromUint64(id),
			Published: time.Date(2018, 2, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(id%1000) * time.Minute),
			Caps:      NewCaps(int(rate), ff, reach),
			Version:   "0.9.34",
		}
		if hasV4 {
			ri.Addresses = append(ri.Addresses, RouterAddress{
				Transport: TransportNTCP,
				Addr:      netip.AddrFrom4([4]byte{10, byte(id >> 8), byte(id), 1}),
				Port:      port,
			})
		}
		if hasV6 {
			var a16 [16]byte
			a16[0] = 0x20
			a16[1] = 0x01
			a16[15] = byte(id)
			ri.Addresses = append(ri.Addresses, RouterAddress{
				Transport: TransportSSU,
				Addr:      netip.AddrFrom16(a16),
				Port:      port,
			})
		}
		data, err := ri.Encode()
		if err != nil {
			return false
		}
		got, err := DecodeRouterInfo(data)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, ri)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
