package reseed

import (
	"reflect"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/netdb"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// reseal returns data with its last 32 bytes replaced by the signing tag
// of the rest under the signer its header names, so a mutation reaches
// the record loop behind the tag check; ok is false when data is too
// short to name a signer.
func reseal(data []byte) (sealed []byte, ok bool) {
	if len(data) < 4+1+32 {
		return nil, false
	}
	body := data[:len(data)-32]
	nameLen := int(body[4])
	if 5+nameLen > len(body) {
		return nil, false
	}
	tag := signingTag(body, string(body[5:5+nameLen]))
	return append(append([]byte{}, body...), tag[:]...), true
}

// FuzzParseBundle feeds ParseBundle bundles of the records the simulator
// publishes (every peer status, one to several records), mutated. Each
// input is parsed as it is and re-sealed. The parser must never panic,
// and a bundle it accepts must re-create and parse back to the same
// records, signer and creation time.
func FuzzParseBundle(f *testing.F) {
	n, err := sim.New(sim.Config{Seed: 11, Days: 3, TargetDailyPeers: 400})
	if err != nil {
		f.Fatal(err)
	}
	const day = 1
	o := n.NewObserver(sim.ObserverConfig{Floodfill: true, SharedKBps: sim.MaxSharedKBps, Seed: 5})
	var records []*netdb.RouterInfo
	statuses := map[sim.Status]bool{}
	for _, s := range o.CaptureDay(day, n.NewClaimSet(), nil) {
		if status := n.Peers[s.Peer].Status; !statuses[status] {
			statuses[status] = true
			records = append(records, n.RouterInfo(day, s))
		}
	}
	if len(statuses) != 4 {
		f.Fatalf("day %d seeds %d of 4 peer statuses", day, len(statuses))
	}
	for i, signer := range []string{"reseed.i2p", "", "manual-peer"} {
		data, err := CreateBundle(records[:1+i%len(records)], signer, n.DayTime(day))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	all, err := CreateBundle(records, "reseed.i2p", n.DayTime(day))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(all)
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if sealed, ok := reseal(data); ok {
			inputs = append(inputs, sealed)
		}
		for _, in := range inputs {
			b, err := ParseBundle(in)
			if err != nil {
				continue
			}
			again, err := CreateBundle(b.Records, b.Signer, b.CreatedAt)
			if err != nil {
				t.Fatalf("accepted bundle does not re-create: %v", err)
			}
			b2, err := ParseBundle(again)
			if err != nil {
				t.Fatalf("re-created bundle refused: %v", err)
			}
			if b2.Signer != b.Signer || !b2.CreatedAt.Equal(b.CreatedAt) {
				t.Fatalf("round trip moved the header: %q %v, then %q %v", b.Signer, b.CreatedAt, b2.Signer, b2.CreatedAt)
			}
			if !reflect.DeepEqual(b2.Records, b.Records) {
				t.Fatal("round trip moved the records")
			}
		}
	})
}
