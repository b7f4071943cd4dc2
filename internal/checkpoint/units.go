package checkpoint

import (
	"encoding/json"
	"fmt"

	"github.com/i2pstudy/i2pstudy/internal/faults"
)

// Units is the resumable-unit bookkeeping of a slot-filling engine. An
// engine owns a slice of result slots, and every slot is its own unit
// (an experiment of core.Study.RunAll): the atom of resume, written once
// when it is committed, as the one-element JSON array of its slot, and
// found already filled by a later run over the same directory.
// encoding/json round-trips float64 exactly and keeps nil apart from
// empty slices, so a resumed slot is reflect.DeepEqual to a computed
// one. Scheduling stays with the engine: it skips slots that report
// Resumed and calls Commit for the rest, from any goroutine.
type Units[T any] struct {
	store   *Store // nil: nothing is written
	slots   []T
	key     func(slot int) string
	point   string
	resumed []bool // slot -> loaded from the store
}

// OpenUnits makes every slot a unit and, when dir is non-empty, opens
// the checkpoint store there against m and loads every unit it holds
// into its slot. dir == "" checkpoints nothing; Commit then only fills
// slots and crosses the fault point. A manifest that disagrees with the
// directory's fails with a *MismatchError.
func OpenUnits[T any](dir string, m Manifest, slots []T, key func(slot int) string, faultPoint string) (*Units[T], error) {
	u := &Units[T]{slots: slots, key: key, point: faultPoint, resumed: make([]bool, len(slots))}
	if dir == "" {
		return u, nil
	}
	var err error
	if u.store, err = Open(dir, m); err != nil {
		return nil, err
	}
	for i := range slots {
		data, ok, err := u.store.Load(key(i))
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		var saved []T
		if err := json.Unmarshal(data, &saved); err != nil {
			return nil, fmt.Errorf("checkpoint: corrupt unit %s: %w", key(i), err)
		}
		if len(saved) != 1 {
			return nil, fmt.Errorf("checkpoint: unit %s holds %d results, the run expects 1", key(i), len(saved))
		}
		slots[i], u.resumed[i] = saved[0], true
	}
	return u, nil
}

// Resumed reports whether slot was filled from the store, so the engine
// must neither recompute nor Commit it.
func (u *Units[T]) Resumed(slot int) bool { return u.resumed[slot] }

// Commit fills slot with v, saves it when a store is open, and then
// crosses the engine's fault point, so an injected crash always finds
// the unit it follows already durable.
func (u *Units[T]) Commit(slot int, v T) error {
	u.slots[slot] = v
	if u.store != nil {
		data, err := json.Marshal(u.slots[slot : slot+1])
		if err != nil {
			return fmt.Errorf("checkpoint: encoding unit %s: %w", u.key(slot), err)
		}
		if err := u.store.Save(u.key(slot), data); err != nil {
			return err
		}
	}
	return faults.Hit(u.point)
}
