package measure

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"github.com/i2pstudy/i2pstudy/internal/checkpoint"
	"github.com/i2pstudy/i2pstudy/internal/netdb"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// campaignVersion is the Campaign engine's checkpoint-format version;
// bump it when the day-unit encoding or keying changes.
const campaignVersion = 1

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

// sortByIdentity puts one day's merged records into canonical order.
// This is the single canonicalization point of the pipeline: everything
// downstream — the Dataset fold (which assigns intern IDs on first
// sight), the snapshot, and the checkpoint unit bytes — inherits an
// order independent of which observer contributed which record.
// Identities are distinct within a day, so the order is total.
func sortByIdentity(recs []*netdb.RouterInfo) {
	slices.SortFunc(recs, func(a, b *netdb.RouterInfo) int {
		return bytes.Compare(a.Identity[:], b.Identity[:])
	})
}

// encodeDayUnit serializes one day's merged observations using the
// netdb wire codec. recs must already be in canonical identity-sorted
// order (see sortByIdentity), which makes the unit's bytes deterministic.
func encodeDayUnit(recs []*netdb.RouterInfo) ([]byte, error) {
	var buf bytes.Buffer
	var u [4]byte
	binary.LittleEndian.PutUint32(u[:], uint32(len(recs)))
	buf.Write(u[:])
	for _, ri := range recs {
		data, err := ri.Encode()
		if err != nil {
			return nil, fmt.Errorf("measure: encoding day unit: %w", err)
		}
		binary.LittleEndian.PutUint32(u[:], uint32(len(data)))
		buf.Write(u[:])
		buf.Write(data)
	}
	return buf.Bytes(), nil
}

// decodeDayUnit inverts encodeDayUnit. Records come back in the same
// canonical identity-sorted order they were written in, so accumulation
// code cannot tell a resumed day from a computed one.
func decodeDayUnit(data []byte) ([]*netdb.RouterInfo, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("measure: day unit truncated")
	}
	n := binary.LittleEndian.Uint32(data)
	data = data[4:]
	recs := make([]*netdb.RouterInfo, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(data) < 4 {
			return nil, fmt.Errorf("measure: day unit truncated at record %d", i)
		}
		sz := binary.LittleEndian.Uint32(data)
		data = data[4:]
		if uint32(len(data)) < sz {
			return nil, fmt.Errorf("measure: day unit truncated at record %d", i)
		}
		ri, err := netdb.DecodeRouterInfo(data[:sz])
		if err != nil {
			return nil, fmt.Errorf("measure: day unit record %d: %w", i, err)
		}
		recs = append(recs, ri)
		data = data[sz:]
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("measure: day unit has %d trailing bytes", len(data))
	}
	return recs, nil
}
