package checkpoint

import (
	"encoding/json"
	"fmt"
	"sync/atomic"

	"github.com/i2pstudy/i2pstudy/internal/faults"
)

// Units is the resumable-unit bookkeeping the slot-filling engines
// share. An engine owns a slice of result slots; every slot belongs to
// one unit (a sweep row, a cell, an experiment), and a unit is the atom
// of resume: it is written once, when its last slot has been committed,
// as the JSON array of its slots in ascending slot order, and a later
// run over the same directory finds those slots already filled.
// encoding/json round-trips float64 exactly and keeps nil apart from
// empty slices, so a resumed slot is reflect.DeepEqual to a computed
// one. Scheduling stays with the engine: it skips slots that report
// Resumed and calls Commit for the rest, from any goroutine.
type Units[T any] struct {
	store   *Store // nil: nothing is written
	slots   []T
	unitOf  func(slot int) int
	members [][]int // unit -> its slots, ascending
	key     func(unit int) string
	point   string
	pending []atomic.Int32 // unit -> slots not yet committed
	resumed []bool         // unit -> loaded from the store
}

// OpenUnits groups slots into units by unitOf and, when dir is
// non-empty, opens the checkpoint store there against m and loads every
// unit it holds into the unit's slots. dir == "" checkpoints nothing;
// Commit then only fills slots and crosses the fault point. A manifest
// that disagrees with the directory's fails with a *MismatchError.
func OpenUnits[T any](dir string, m Manifest, slots []T, unitOf func(slot int) int, key func(unit int) string, faultPoint string) (*Units[T], error) {
	u := &Units[T]{slots: slots, unitOf: unitOf, key: key, point: faultPoint}
	for i := range slots {
		g := unitOf(i)
		for g >= len(u.members) {
			u.members = append(u.members, nil)
		}
		u.members[g] = append(u.members[g], i)
	}
	u.pending = make([]atomic.Int32, len(u.members))
	u.resumed = make([]bool, len(u.members))
	for g, ms := range u.members {
		u.pending[g].Store(int32(len(ms)))
	}
	if dir == "" {
		return u, nil
	}
	var err error
	if u.store, err = Open(dir, m); err != nil {
		return nil, err
	}
	for g, ms := range u.members {
		data, ok, err := u.store.Load(key(g))
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		var saved []T
		if err := json.Unmarshal(data, &saved); err != nil {
			return nil, fmt.Errorf("checkpoint: corrupt unit %s: %w", key(g), err)
		}
		if len(saved) != len(ms) {
			return nil, fmt.Errorf("checkpoint: unit %s holds %d results, the run expects %d", key(g), len(saved), len(ms))
		}
		for j, i := range ms {
			slots[i] = saved[j]
		}
		u.resumed[g] = true
	}
	return u, nil
}

// Resumed reports whether slot was filled from the store, so the engine
// must neither recompute nor Commit it.
func (u *Units[T]) Resumed(slot int) bool { return u.resumed[u.unitOf(slot)] }

// Commit fills slot with v. The one caller that commits a unit's last
// outstanding slot saves the unit — the atomic countdown orders every
// other worker's slot writes before that save — and every Commit then
// crosses the engine's fault point, so an injected crash always finds
// the unit it follows already durable.
func (u *Units[T]) Commit(slot int, v T) error {
	u.slots[slot] = v
	g := u.unitOf(slot)
	if u.pending[g].Add(-1) == 0 && u.store != nil {
		saved := make([]T, len(u.members[g]))
		for j, i := range u.members[g] {
			saved[j] = u.slots[i]
		}
		data, err := json.Marshal(saved)
		if err != nil {
			return fmt.Errorf("checkpoint: encoding unit %s: %w", u.key(g), err)
		}
		if err := u.store.Save(u.key(g), data); err != nil {
			return err
		}
	}
	return faults.Hit(u.point)
}
