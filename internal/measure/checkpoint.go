package measure

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"github.com/i2pstudy/i2pstudy/internal/checkpoint"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// campaignVersion is the Campaign engine's checkpoint-format version;
// bump it when the day-unit encoding, keying or order changes. Version 3
// is the sighting stream below in peer-index order; version 2 held the
// same records in identity order, version 1 netdb wire-encoded
// RouterInfos. A unit names its peers by index into the manifest's
// network, so an API that ever mutates a network must bump this or epoch
// the manifest.
const campaignVersion = 3

// HashNetwork folds every sim.Network config field that shapes engine
// output into h. All five engines derive their checkpoint ConfigHash
// through this helper so "same network" means the same thing
// everywhere. The network seed is deliberately excluded: it rides the
// manifest's dedicated Seed field.
func HashNetwork(h *checkpoint.Hasher, n *sim.Network) {
	cfg := n.Config()
	h.Int(cfg.Days)
	h.Int(cfg.TargetDailyPeers)
	// Churn and Observation are flat structs of scalars; fold their
	// dereferenced %+v rendering (never the pointer, which would hash an
	// address).
	if cfg.Churn != nil {
		h.String(fmt.Sprintf("%+v", *cfg.Churn))
	} else {
		h.String("churn:default")
	}
	if cfg.Observation != nil {
		h.String(fmt.Sprintf("%+v", *cfg.Observation))
	} else {
		h.String("observation:default")
	}
}

// checkpointManifest identifies this campaign for resume purposes:
// network shape, day range, and the full observer fleet config. Workers
// is excluded — a campaign may resume at any width.
func (c *Campaign) checkpointManifest() checkpoint.Manifest {
	h := checkpoint.NewHasher()
	HashNetwork(h, c.net)
	h.Int(c.cfg.StartDay)
	h.Int(c.cfg.EndDay)
	h.Int(len(c.cfg.Observers))
	for _, o := range c.cfg.Observers {
		h.String(o.Name)
		if o.Floodfill {
			h.Int(1)
		} else {
			h.Int(0)
		}
		h.Int(o.SharedKBps)
		h.Uint64(o.Seed)
	}
	return checkpoint.Manifest{
		Engine:     "measure.Campaign",
		Version:    campaignVersion,
		ConfigHash: h.Sum(),
		Seed:       c.net.Config().Seed,
	}
}

// dayKey names the checkpoint unit holding one completed day.
func dayKey(day int) string { return fmt.Sprintf("day-%03d", day) }

// sortByPeer writes the day's captured sightings into dst's storage, in
// canonical order, ascending by peer index, and returns them. dst is a
// unit buffer, not sc's, so the next capture does not overwrite it; it is
// grown only if the day has more sightings than it holds. This is the
// single canonicalization point of the pipeline: everything downstream —
// the fold (which assigns intern IDs on first sight and walks its
// per-peer state in this order), the snapshot, and the checkpoint unit
// bytes — inherits an order independent of which observer contributed
// which record. A day holds one sighting per peer, so the order is total.
//
// No comparison sort is needed: the claim set is a bitset over peer index
// holding exactly the day's sighted peers, so walking its set bits in
// order and looking each peer up in a by-peer position table emits the
// sightings sorted.
func (sc *dayCapture) sortByPeer(dst []sim.Sighting) []sim.Sighting {
	for i, s := range sc.recs {
		sc.pos[s.Peer] = int32(i)
	}
	sorted := slices.Grow(dst[:0], len(sc.recs))
	for w, word := range sc.claimed {
		for ; word != 0; word &= word - 1 {
			sorted = append(sorted, sc.recs[sc.pos[w<<6|bits.TrailingZeros64(word)]])
		}
	}
	return sorted
}

// A day unit is a little-endian record stream:
//
//	magic "DU03" | count u32 | count × record | SHA-256 of all that precedes
//	record: peer u32 | port u16 | n u8 | n × (pick u32 | tag u32 | port u16)
//
// — each sighting's peer index and draw, nothing the network already
// holds, records strictly ascending by peer index. The checksum covers
// the whole unit and is verified before any field is read.
var dayUnitMagic = [4]byte{'D', 'U', '0', '3'}

const (
	dayUnitHeader = len(dayUnitMagic) + 4
	recordSize    = 4 + 2 + 1 // a record with no introducers
	introSize     = 4 + 4 + 2
)

// encodeDayUnit serializes one day's merged sightings into buf's storage
// (grown if it is short) and returns the unit. recs must already be in
// canonical peer order (see sortByPeer), which makes the unit's bytes
// deterministic.
func encodeDayUnit(buf []byte, recs []sim.Sighting) []byte {
	size := dayUnitHeader + sha256.Size
	for i := range recs {
		size += recordSize + int(recs[i].N)*introSize
	}
	le := binary.LittleEndian
	buf = append(slices.Grow(buf[:0], size), dayUnitMagic[:]...)
	buf = le.AppendUint32(buf, uint32(len(recs)))
	for i := range recs {
		s := &recs[i]
		buf = le.AppendUint32(buf, uint32(s.Peer))
		buf = le.AppendUint16(buf, s.Port)
		buf = append(buf, s.N)
		for _, in := range s.Intros[:s.N] {
			buf = le.AppendUint32(buf, in.Pick)
			buf = le.AppendUint32(buf, in.Tag)
			buf = le.AppendUint16(buf, in.Port)
		}
	}
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

// decodeDayUnit inverts encodeDayUnit for the given day of the given
// network, and refuses anything that network cannot have written: a unit
// whose checksum does not match, and past that a peer index out of range
// or offline that day, a draw the peer's status or the day's introducer
// pool rules out (sim.Network.CheckSighting), records not strictly
// ascending by peer index, short or trailing bytes. Records come back in
// the canonical order they were written in, so accumulation code cannot
// tell a resumed day from a computed one. They are decoded into dst's
// storage (grown if it is short), every field of every record written,
// so what dst held before cannot show through; on an error the records
// in dst are undefined.
func decodeDayUnit(network *sim.Network, day int, data []byte, dst []sim.Sighting) ([]sim.Sighting, error) {
	if len(data) < dayUnitHeader+sha256.Size {
		return nil, fmt.Errorf("measure: day unit truncated: %d bytes", len(data))
	}
	body, tag := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], tag) {
		return nil, fmt.Errorf("measure: day unit checksum mismatch")
	}
	if !bytes.Equal(body[:len(dayUnitMagic)], dayUnitMagic[:]) {
		return nil, fmt.Errorf("measure: day unit magic %q, want %q", body[:len(dayUnitMagic)], dayUnitMagic[:])
	}
	le := binary.LittleEndian
	count := le.Uint32(body[len(dayUnitMagic):])
	body = body[dayUnitHeader:]
	if uint64(count)*recordSize > uint64(len(body)) {
		return nil, fmt.Errorf("measure: day unit truncated: %d records in %d bytes", count, len(body))
	}
	recs := slices.Grow(dst[:0], int(count))[:count]
	for i := range recs {
		s := &recs[i]
		if len(body) < recordSize {
			return nil, fmt.Errorf("measure: day unit truncated at record %d", i)
		}
		*s = sim.Sighting{Peer: int32(le.Uint32(body)), Draw: sim.Draw{Port: le.Uint16(body[4:]), N: body[6]}}
		body = body[recordSize:]
		if int(s.N) > len(s.Intros) {
			return nil, fmt.Errorf("measure: day unit record %d: %d introducers, at most %d possible", i, s.N, len(s.Intros))
		}
		if len(body) < int(s.N)*introSize {
			return nil, fmt.Errorf("measure: day unit truncated at record %d", i)
		}
		for j := range s.Intros[:s.N] {
			s.Intros[j] = sim.IntroDraw{Pick: le.Uint32(body), Tag: le.Uint32(body[4:]), Port: le.Uint16(body[8:])}
			body = body[introSize:]
		}
		if err := network.CheckSighting(day, *s); err != nil {
			return nil, fmt.Errorf("measure: day unit record %d: %w", i, err)
		}
		if i > 0 && recs[i-1].Peer >= s.Peer {
			return nil, fmt.Errorf("measure: day unit record %d: peer %d after peer %d, not strictly ascending", i, s.Peer, recs[i-1].Peer)
		}
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("measure: day unit has %d trailing bytes", len(body))
	}
	return recs, nil
}
