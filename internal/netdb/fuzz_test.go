package netdb_test

import (
	"bytes"
	"crypto/sha256"
	"reflect"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/netdb"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// FuzzDecodeRouterInfo feeds DecodeRouterInfo records as the simulator
// publishes them (one per peer status), mutated. Each input is decoded
// as it is, and again with its last 32 bytes replaced by the tag of the
// rest, so mutations reach the parser behind the integrity check. The
// decoder must never panic, and whatever it accepts must encode and
// decode back to the same record, whose encoding is then a fixed point.
func FuzzDecodeRouterInfo(f *testing.F) {
	n, err := sim.New(sim.Config{Seed: 11, Days: 3, TargetDailyPeers: 400})
	if err != nil {
		f.Fatal(err)
	}
	const day = 1
	o := n.NewObserver(sim.ObserverConfig{Floodfill: true, SharedKBps: sim.MaxSharedKBps, Seed: 5})
	seeded := map[sim.Status]int{}
	for _, s := range o.CaptureDay(day, n.NewClaimSet(), nil) {
		status := n.Peer(int(s.Peer)).Status
		if seeded[status] == 2 {
			continue
		}
		data, err := n.RouterInfo(day, s).Encode()
		if err != nil {
			f.Fatal(err)
		}
		seeded[status]++
		f.Add(data)
	}
	if len(seeded) != 4 {
		f.Fatalf("day %d seeds %d of 4 peer statuses", day, len(seeded))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) >= sha256.Size {
			body := data[:len(data)-sha256.Size]
			tag := sha256.Sum256(body)
			inputs = append(inputs, append(bytes.Clone(body), tag[:]...))
		}
		for _, in := range inputs {
			ri, err := netdb.DecodeRouterInfo(in)
			if err != nil {
				continue
			}
			enc, err := ri.Encode()
			if err != nil {
				t.Fatalf("accepted record does not encode: %v", err)
			}
			again, err := netdb.DecodeRouterInfo(enc)
			if err != nil {
				t.Fatalf("re-encoded record refused: %v", err)
			}
			if !reflect.DeepEqual(again, ri) {
				t.Fatalf("round trip moved the record:\n%+v\n%+v", ri, again)
			}
			if enc2, _ := again.Encode(); !bytes.Equal(enc2, enc) {
				t.Fatal("encoding of a decoded record is not a fixed point")
			}
		}
	})
}
