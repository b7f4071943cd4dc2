package measure

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/i2pstudy/i2pstudy/internal/checkpoint"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// dayUnitFixture is a small campaign whose captured days feed the codec
// tests — a few dozen records a day, so the fuzzer minimizes what it
// derives from them in milliseconds.
func dayUnitFixture(t testing.TB) *Campaign {
	t.Helper()
	n, err := sim.New(sim.Config{Seed: 13, Days: 10, TargetDailyPeers: 40})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCampaign(n, CampaignConfig{Observers: DefaultObserverFleet(3), StartDay: 0, EndDay: 10})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// seal closes a unit body with its checksum, as encodeDayUnit does.
func seal(body []byte) []byte {
	sum := sha256.Sum256(body)
	return append(bytes.Clone(body), sum[:]...)
}

// version1Unit is the day unit as campaignVersion 1 wrote it: a record
// count, then each RouterInfo's netdb wire encoding behind its length.
func version1Unit(t testing.TB, network *sim.Network, day int, recs []sim.Sighting) []byte {
	t.Helper()
	le := binary.LittleEndian
	unit := le.AppendUint32(nil, uint32(len(recs)))
	for _, s := range recs {
		data, err := network.RouterInfo(day, s).Encode()
		if err != nil {
			t.Fatal(err)
		}
		unit = append(le.AppendUint32(unit, uint32(len(data))), data...)
	}
	return unit
}

// unsealed returns a unit's body, the checksum cut off.
func unsealed(unit []byte) []byte { return unit[:len(unit)-sha256.Size] }

// version2Unit is the day unit as campaignVersion 2 wrote it: the same
// records under the magic "DU02", in identity order.
func version2Unit(network *sim.Network, recs []sim.Sighting) []byte {
	recs = slices.Clone(recs)
	slices.SortFunc(recs, func(a, b sim.Sighting) int {
		return bytes.Compare(network.Peers[a.Peer].ID[:], network.Peers[b.Peer].ID[:])
	})
	body := unsealed(encodeDayUnit(nil, recs))
	copy(body, "DU02")
	return seal(body)
}

// version3Unit is the day unit as campaignVersion 3 wrote it: the same
// records under the magic "DU03", ascending by peer index.
func version3Unit(recs []sim.Sighting) []byte {
	recs = slices.Clone(recs)
	slices.SortFunc(recs, func(a, b sim.Sighting) int { return cmp.Compare(a.Peer, b.Peer) })
	body := unsealed(encodeDayUnit(nil, recs))
	copy(body, "DU03")
	return seal(body)
}

// TestDayUnitRoundTrip: every captured day decodes back to the sightings
// it was encoded from, in the order the capture found them in.
func TestDayUnitRoundTrip(t *testing.T) {
	c := dayUnitFixture(t)
	w := c.newDayWorker()
	for day := c.cfg.StartDay; day < c.cfg.EndDay; day++ {
		recs := c.captureDay(day, w)
		if len(recs) == 0 {
			t.Fatalf("day %d captured nothing", day)
		}
		got, err := decodeDayUnit(c.net, day, encodeDayUnit(nil, recs), w.claimed, nil)
		if err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
		if !reflect.DeepEqual(got, recs) {
			t.Fatalf("day %d: decoded sightings differ from the encoded ones", day)
		}
	}
	if got, err := decodeDayUnit(c.net, 0, encodeDayUnit(nil, nil), w.claimed, nil); err != nil || len(got) != 0 {
		t.Fatalf("empty unit = (%d records, %v)", len(got), err)
	}
}

// TestDayUnitRefusesDoctoredBody reaches each of the decoder's validators
// on its own: the body is doctored and the checksum recomputed over it,
// so nothing but the named check stands between the unit and the fold.
func TestDayUnitRefusesDoctoredBody(t *testing.T) {
	c := dayUnitFixture(t)
	const day = 4
	w := c.newDayWorker()
	valid := slices.Clone(c.captureDay(day, w))
	// The first record that advertises an introducer, and its offset in
	// the unit.
	intro, introOff := -1, dayUnitHeader
	for i, s := range valid {
		if s.N > 0 {
			intro = i
			break
		}
		introOff += recordSize + int(s.N)*introSize
	}
	if intro < 0 || len(valid) < 2 {
		t.Fatalf("fixture day holds %d records, none with an introducer", len(valid))
	}
	offline := -1
	for i := range c.net.Peers {
		if !c.net.ActiveOn(i, day) {
			offline = i
			break
		}
	}
	if offline < 0 {
		t.Fatal("every peer of the fixture is online on the fixture day")
	}

	// doctorRecs edits a copy of the sightings and encodes it; doctorBody
	// edits the valid unit's bytes.
	doctorRecs := func(edit func(recs []sim.Sighting)) []byte {
		recs := append([]sim.Sighting(nil), valid...)
		edit(recs)
		return encodeDayUnit(nil, recs)
	}
	doctorBody := func(edit func(body []byte) []byte) []byte {
		return seal(edit(bytes.Clone(unsealed(encodeDayUnit(nil, valid)))))
	}
	cases := []struct {
		name, want string
		unit       []byte
	}{
		{"peer out of range", "outside the network", doctorRecs(func(recs []sim.Sighting) {
			recs[0].Peer = int32(len(c.net.Peers))
		})},
		{"negative peer", "outside the network", doctorRecs(func(recs []sim.Sighting) {
			recs[0].Peer = -1
		})},
		{"inactive peer", "not online", doctorRecs(func(recs []sim.Sighting) {
			recs[0].Peer = int32(offline)
		})},
		{"duplicate peer", fmt.Sprintf("record 1: peer %d repeated", valid[0].Peer), doctorRecs(func(recs []sim.Sighting) {
			recs[1] = recs[0]
		})},
		{"repeat far apart", fmt.Sprintf("record %d: peer %d repeated", len(valid)-1, valid[0].Peer), doctorRecs(func(recs []sim.Sighting) {
			recs[len(recs)-1] = recs[0]
		})},
		{"n = 4", "4 introducers", doctorBody(func(body []byte) []byte {
			body[introOff+6] = 4
			return body
		})},
		{"pick == pool size", "past day 4's pool", doctorRecs(func(recs []sim.Sighting) {
			recs[intro].Intros[0].Pick = uint32(len(c.net.Introducers(day)))
		})},
		{"truncated record", "truncated", doctorBody(func(body []byte) []byte {
			return body[:len(body)-3]
		})},
		{"count past the records", "truncated", doctorBody(func(body []byte) []byte {
			binary.LittleEndian.PutUint32(body[len(dayUnitMagic):], uint32(len(valid)+1))
			return body
		})},
		{"trailing bytes", "trailing", doctorBody(func(body []byte) []byte {
			return append(body, 0)
		})},
		{"wrong magic", "magic", doctorBody(func(body []byte) []byte {
			body[0] ^= 1
			return body
		})},
		{"version 1 unit", "checksum", version1Unit(t, c.net, day, valid)},
		{"version 2 unit", "magic", version2Unit(c.net, valid)},
		{"version 3 unit", "magic", version3Unit(valid)},
		{"too short for a checksum", "truncated", encodeDayUnit(nil, valid)[:dayUnitHeader]},
	}
	for _, tc := range cases {
		recs, err := decodeDayUnit(c.net, day, tc.unit, w.claimed, nil)
		if err == nil {
			t.Errorf("%s: accepted, %d records", tc.name, len(recs))
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: refused with %q, want the %q check", tc.name, err, tc.want)
		}
	}
	if _, err := decodeDayUnit(c.net, day, encodeDayUnit(nil, valid), w.claimed, nil); err != nil {
		t.Fatalf("the undoctored unit is refused: %v", err)
	}
	// Records need not ascend: descending peers, the capture order
	// reversed, come back as written.
	if !slices.IsSortedFunc(valid, func(a, b sim.Sighting) int { return cmp.Compare(b.Peer, a.Peer) }) {
		descending := slices.Clone(valid)
		slices.SortFunc(descending, func(a, b sim.Sighting) int { return cmp.Compare(b.Peer, a.Peer) })
		got, err := decodeDayUnit(c.net, day, encodeDayUnit(nil, descending), w.claimed, nil)
		if err != nil || !slices.Equal(got, descending) {
			t.Errorf("descending peers: (%d records, %v), want the %d records back", len(got), err, len(descending))
		}
	}
	// The unit belongs to its day: another day's pool and presence differ.
	if _, err := decodeDayUnit(c.net, day+1, encodeDayUnit(nil, valid), w.claimed, nil); err == nil {
		t.Error("day 4's unit decoded as day 5's")
	}
}

// TestDayUnitEveryByteIsCovered flips each byte of a unit in turn, the
// checksum's own included: none survives.
func TestDayUnitEveryByteIsCovered(t *testing.T) {
	c := dayUnitFixture(t)
	const day = 4
	w := c.newDayWorker()
	unit := encodeDayUnit(nil, c.captureDay(day, w))
	for i := range unit {
		unit[i] ^= 0x40
		if _, err := decodeDayUnit(c.net, day, unit, w.claimed, nil); err == nil {
			t.Fatalf("unit accepted with byte %d of %d flipped", i, len(unit))
		}
		unit[i] ^= 0x40
	}
}

// FuzzDayUnit holds the day-unit decoder to four properties on hostile
// input: it never panics; whatever it accepts re-encodes to the bytes it
// was given (decode ∘ encode is the identity, and the encoding is
// canonical); decoding into a reused buffer full of garbage, through a
// claim set full of marks, gives what decoding into a fresh one does,
// the same sightings or the same error;
// and a valid unit with any one byte changed is refused. The input is
// tried as given and again with the checksum recomputed over its body,
// so the fuzzer gets past the checksum to the validators.
func FuzzDayUnit(f *testing.F) {
	c := dayUnitFixture(f)
	const day = 4
	w := c.newDayWorker()
	valid := encodeDayUnit(nil, c.captureDay(day, w))
	for _, d := range []int{0, day, 9} {
		f.Add(encodeDayUnit(nil, c.captureDay(d, w)), uint(0), byte(1))
	}
	f.Add(encodeDayUnit(nil, nil), uint(7), byte(0x80))
	f.Add([]byte("DU04"), uint(40), byte(0xff))
	v2 := version2Unit(c.net, c.captureDay(day, w))
	if _, err := decodeDayUnit(c.net, day, v2, w.claimed, nil); err == nil {
		f.Fatal("a sealed version 2 unit decodes")
	}
	f.Add(v2, uint(0), byte(0))
	// Capture order is no order by peer: the day's records reversed make
	// a unit whose peers neither ascend nor descend throughout.
	reversed := slices.Clone(c.captureDay(day, w))
	slices.Reverse(reversed)
	f.Add(encodeDayUnit(nil, reversed), uint(0), byte(0))
	// Room for a fixture day's records, so most inputs decode into the
	// dirty buffer's own storage rather than a grown copy.
	// Every decode shares claims, so it finds the last one's marks; the
	// dirty decode's claim set is set full first.
	dirty := make([]sim.Sighting, 2*len(c.net.Peers))
	claims, dirtyClaims := c.net.NewClaimSet(), c.net.NewClaimSet()
	f.Fuzz(func(t *testing.T, data []byte, pos uint, flip byte) {
		roundTrip := func(unit []byte) {
			recs, err := decodeDayUnit(c.net, day, unit, claims, nil)
			scribbleSightings(dirty)
			for i := range dirtyClaims {
				dirtyClaims[i] = ^uint64(0)
			}
			reused, reusedErr := decodeDayUnit(c.net, day, unit, dirtyClaims, dirty)
			if fmt.Sprint(err) != fmt.Sprint(reusedErr) || !slices.Equal(recs, reused) {
				t.Fatalf("a %d-byte unit decodes to (%d records, %v) fresh and (%d records, %v) into a dirty buffer, not the same",
					len(unit), len(recs), err, len(reused), reusedErr)
			}
			if err != nil {
				return
			}
			if again := encodeDayUnit(nil, recs); !bytes.Equal(again, unit) {
				t.Fatalf("accepted a %d-byte unit that re-encodes to %d different bytes", len(unit), len(again))
			}
		}
		roundTrip(data)
		if len(data) >= sha256.Size {
			roundTrip(seal(unsealed(data)))
		}
		if flip != 0 {
			mutated := bytes.Clone(valid)
			mutated[pos%uint(len(mutated))] ^= flip
			if _, err := decodeDayUnit(c.net, day, mutated, claims, nil); err == nil {
				t.Fatalf("valid unit accepted with byte %d xor %#x", pos%uint(len(mutated)), flip)
			}
		}
	})
}

// TestCampaignRefusesVersion1Store: a directory an older campaign wrote
// — version 1's RouterInfo wire records, version 2's identity-ordered or
// version 3's peer-ordered sightings, under the same keys — is refused
// at the manifest, before a unit is read.
func TestCampaignRefusesVersion1Store(t *testing.T) {
	for _, tc := range []struct {
		version int
		unit    func(c *Campaign, recs []sim.Sighting) []byte
	}{
		{1, func(c *Campaign, recs []sim.Sighting) []byte { return version1Unit(t, c.net, 0, recs) }},
		{2, func(c *Campaign, recs []sim.Sighting) []byte { return version2Unit(c.net, recs) }},
		{3, func(c *Campaign, recs []sim.Sighting) []byte { return version3Unit(recs) }},
	} {
		t.Run(fmt.Sprintf("version %d", tc.version), func(t *testing.T) {
			c := dayUnitFixture(t)
			dir := t.TempDir()
			old := c.checkpointManifest()
			old.Version = tc.version
			store, err := checkpoint.Open(dir, old)
			if err != nil {
				t.Fatal(err)
			}
			day0 := c.captureDay(0, c.newDayWorker())
			if err := store.Save(dayKey(0), tc.unit(c, day0)); err != nil {
				t.Fatal(err)
			}
			c.cfg.CheckpointDir = dir
			_, err = c.Run()
			var mismatch *checkpoint.MismatchError
			if !errors.As(err, &mismatch) {
				t.Fatalf("run over a version %d store returned %v, want a *checkpoint.MismatchError", tc.version, err)
			}
			want := checkpoint.MismatchError{Field: "version", Have: fmt.Sprint(tc.version), Want: "4"}
			if *mismatch != want {
				t.Fatalf("mismatch = %+v, want %+v", *mismatch, want)
			}
		})
	}
}

// TestResumeErrorNamesUnit: a unit that fails to decode is reported with
// its key and the store directory — the file an operator has to delete.
func TestResumeErrorNamesUnit(t *testing.T) {
	c := dayUnitFixture(t)
	dir := t.TempDir()
	c.cfg.CheckpointDir = dir
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, dayKey(3))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = c.Run()
	if err == nil {
		t.Fatal("resume accepted a damaged unit")
	}
	for _, want := range []string{dayKey(3), dir, "checksum"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("resume error %q does not mention %q", err, want)
		}
	}
}
