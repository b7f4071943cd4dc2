package measure

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/i2pstudy/i2pstudy/internal/checkpoint"
	"github.com/i2pstudy/i2pstudy/internal/faults"
	"github.com/i2pstudy/i2pstudy/internal/netdb"
	"github.com/i2pstudy/i2pstudy/internal/obs"
	"github.com/i2pstudy/i2pstudy/internal/pool"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// CampaignConfig describes one measurement campaign: a set of observer
// routers run over a day range, mirroring Section 5's setup of "20 routers
// ... 10 floodfill and 10 non-floodfill" for three months.
type CampaignConfig struct {
	// Observers to run. See DefaultObserverFleet.
	Observers []sim.ObserverConfig
	// StartDay (inclusive) and EndDay (exclusive) in study days.
	StartDay, EndDay int
	// SnapshotDir, when non-empty, persists the fleet's merged netDb to
	// disk each day (routerInfo-*.dat files) exactly as the paper's harness
	// watched the Java router's netDb directory. Mostly useful for the
	// CLI tools; analyses never read it back. It is the one campaign path
	// that materializes RouterInfos — the fold and the checkpoint store
	// work from sightings. Each day directory appears atomically (written
	// to a temp dir, then renamed), so an interrupted campaign never
	// leaves a half-written day behind.
	SnapshotDir string
	// Workers caps the number of days captured concurrently. Zero or
	// negative selects one worker per CPU; 1 runs the same pipeline
	// inline on the caller's goroutine. Every worker count yields a
	// byte-identical Dataset: a day's capture is deterministic in (fleet,
	// day) whichever worker runs it, and the census fold commutes, so
	// the order days fold in does not show. Parallelism is across days
	// only, so a campaign shorter than the worker count does not fan out
	// within a day.
	Workers int
	// CheckpointDir, when non-empty, spills each completed day's merged
	// sightings — (peer index, draw) records, checksummed per unit — to a
	// checkpoint.Store so an interrupted campaign resumes by loading
	// finished days instead of recomputing them. The directory is keyed
	// by a manifest (network + fleet config hash, seed, engine version);
	// resuming against state from a different run, or from an older
	// format, fails with a *checkpoint.MismatchError. A loaded unit is
	// verified against the network before it is folded. Any subset of
	// the days may be on disk: a resumed run loads those and captures the
	// rest, and because the fold commutes its Dataset is byte-identical
	// to an uninterrupted one at any Workers value.
	CheckpointDir string
}

// DefaultObserverFleet returns the paper's main fleet: count observers at
// 8 MB/s, alternating floodfill and non-floodfill modes.
func DefaultObserverFleet(count int) []sim.ObserverConfig {
	fleet := make([]sim.ObserverConfig, count)
	for i := range fleet {
		fleet[i] = sim.ObserverConfig{
			Name:       fmt.Sprintf("obs-%02d", i),
			Floodfill:  i%2 == 0,
			SharedKBps: sim.MaxSharedKBps,
			Seed:       uint64(1000 + i),
		}
	}
	return fleet
}

// Campaign binds a configuration to a network.
type Campaign struct {
	cfg CampaignConfig
	net *sim.Network
	obs []*sim.Observer

	// Retained-unit accounting (see MemStats).
	retained     atomic.Int64
	peakRetained atomic.Int64

	// scribble, when set, is handed every unit buffer, to its capacity,
	// once its day is committed and saved and before the buffer is
	// refilled: a test seam that overwrites it, proving nothing reads a
	// unit after its commit.
	scribble func([]sim.Sighting)
}

// NewCampaign validates cfg against the network.
func NewCampaign(network *sim.Network, cfg CampaignConfig) (*Campaign, error) {
	if len(cfg.Observers) == 0 {
		return nil, fmt.Errorf("measure: campaign needs at least one observer")
	}
	if cfg.StartDay < 0 || cfg.EndDay > network.Days() || cfg.StartDay >= cfg.EndDay {
		return nil, fmt.Errorf("measure: invalid day range [%d, %d) for a %d-day network",
			cfg.StartDay, cfg.EndDay, network.Days())
	}
	c := &Campaign{cfg: cfg, net: network}
	for _, ocfg := range cfg.Observers {
		c.obs = append(c.obs, network.NewObserver(ocfg))
	}
	return c, nil
}

// Run executes the campaign with a background context. See RunContext.
func (c *Campaign) Run() (*Dataset, error) {
	return c.RunContext(context.Background())
}

// RunContext executes the campaign: for every day, every observer captures
// its sightings (the union of its hourly netDb scans), the records are
// merged, and the dataset accumulators are updated. The equivalent of the
// paper's daily netDb cleanup is implicit: each day starts from an empty
// observation set.
//
// One day is one task, and days fold in whatever order workers finish
// them: the census fold commutes. A worker loads the day's unit from
// the checkpoint store if one is there, and otherwise captures the
// whole fleet for it; then it folds the day and writes its snapshot
// under the run's one commit lock, and spills the unit after letting
// go of the lock.
func (c *Campaign) RunContext(ctx context.Context) (*Dataset, error) {
	c.retained.Store(0)
	c.peakRetained.Store(0)
	ds := NewDataset(c.cfg.StartDay, c.cfg.EndDay)
	f := newFolder(ds, c.net)
	snap, err := c.newSnapshotter()
	if err != nil {
		return nil, err
	}
	var store *checkpoint.Store
	if c.cfg.CheckpointDir != "" {
		store, err = checkpoint.Open(c.cfg.CheckpointDir, c.checkpointManifest())
		if err != nil {
			return nil, err
		}
	}
	err = c.run(ctx, store, func(day int, recs []sim.Sighting) error {
		f.fold(day, recs)
		// A loaded day's snapshot is written again, so a resumed run
		// leaves the SnapshotDir an uninterrupted one would.
		return snap.write(day, recs)
	})
	if err != nil {
		return nil, err
	}
	return ds, nil
}

// run drives every day of the campaign through load or capture, commit
// and spill, on the resolved number of workers, each taking the next day
// from one ticket. commit folds and snapshots, one day at a time under
// one lock; the unit is saved after the lock is let go (a save under it
// would serialize the fsyncs), and after the commit, so a unit on disk
// guarantees the day's snapshot is complete.
func (c *Campaign) run(ctx context.Context, store *checkpoint.Store, commit func(day int, recs []sim.Sighting) error) error {
	workers := min(pool.Width(c.cfg.Workers), c.cfg.EndDay-c.cfg.StartDay)
	var ticket atomic.Int64
	ticket.Store(int64(c.cfg.StartDay))
	var mu sync.Mutex
	// Workers publish the peak as they raise it, last writer wins, so a
	// stale Set can land last; the joined run's value is exact.
	defer func() { campaignObs.Get().retainedPeak.Set(c.peakRetained.Load()) }()

	// commitDay commits the day in w.recs, then, for a captured day,
	// spills its unit and crosses the day's fault boundary. A captured
	// unit counts as retained until its commit returns.
	commitDay := func(ctx context.Context, w *dayWorker, day int, loaded bool) error {
		if !loaded {
			bytes := unitBytes(w.recs)
			c.retainUnit(bytes)
			defer c.releaseUnit(bytes)
			// Every captured day is a scheduler boundary the fault
			// injector may target, as every FanOut task is.
			if err := faults.Hit("pool.task"); err != nil {
				return err
			}
		}
		mu.Lock()
		err := ctx.Err()
		if err == nil {
			err = commit(day, w.recs)
		}
		mu.Unlock()
		if err == nil && !loaded && store != nil {
			w.unit = encodeDayUnit(w.unit, w.recs)
			err = store.Save(dayKey(day), w.unit)
		}
		if err != nil {
			return err
		}
		c.committed(w.recs)
		if loaded {
			return nil
		}
		return faults.Hit("measure.campaign.day")
	}
	return pool.Run(ctx, workers, func(ctx context.Context, tid int) (captured int, _ error) {
		w := c.newDayWorker()
		tr := obs.ActiveTracer()
		for {
			if err := ctx.Err(); err != nil {
				return captured, err
			}
			day := int(ticket.Add(1)) - 1
			if day >= c.cfg.EndDay {
				return captured, nil
			}
			loaded, err := c.load(store, day, w)
			if err != nil {
				return captured, err
			}
			if !loaded {
				t0 := tr.Now()
				c.captureDay(day, w)
				captured++
				tr.Complete(tid, "day", t0, obs.Arg{Key: "day", Val: int64(day)})
			}
			if err := commitDay(ctx, w, day, loaded); err != nil {
				return captured, err
			}
		}
	})
}

// dayWorker is one worker's scratch, reused from day to day: the claim
// set a capture merges and a decode checks peers through, the day's
// unit, and the encode buffer.
type dayWorker struct {
	claimed sim.ClaimSet
	recs    []sim.Sighting
	unit    []byte
}

func (c *Campaign) newDayWorker() *dayWorker { return &dayWorker{claimed: c.net.NewClaimSet()} }

// load decodes day's unit from the store into w.recs, if the store holds
// one, and reports whether it did.
func (c *Campaign) load(store *checkpoint.Store, day int, w *dayWorker) (bool, error) {
	if store == nil {
		return false, nil
	}
	data, ok, err := store.Load(dayKey(day))
	if err != nil || !ok {
		return false, err
	}
	if w.recs, err = decodeDayUnit(c.net, day, data, w.claimed, w.recs); err != nil {
		return false, fmt.Errorf("checkpoint unit %s in %s: %w", dayKey(day), c.cfg.CheckpointDir, err)
	}
	return true, nil
}

// captureDay is the merge: observers in fleet order over one claim set,
// so each peer's sighting is the first observer's to see it — what
// "newest wins, ties to the earliest observer" resolves to when every
// observer stamps the day's time — and no other is kept. The sightings
// land in w.recs in capture order, deterministic in (fleet, day), and
// are returned.
func (c *Campaign) captureDay(day int, w *dayWorker) []sim.Sighting {
	clear(w.claimed)
	// The claim set bounds the day's sightings by its active peers, so
	// the buffer grows at most once, here, and never observer by
	// observer.
	w.recs = slices.Grow(w.recs[:0], len(c.net.ActivePeers(day)))
	for _, o := range c.obs {
		w.recs = o.CaptureDay(day, w.claimed, w.recs)
	}
	return w.recs
}

// committed passes a committed unit's buffer to the scribble seam, if
// one is set, before the buffer is refilled.
func (c *Campaign) committed(recs []sim.Sighting) {
	if c.scribble != nil {
		c.scribble(recs[:cap(recs)])
	}
}

// MemStats reports the campaign engine's retained-unit accounting —
// the evidence that a run held at most one captured day unit per
// worker, never O(days).
type MemStats struct {
	// PeakRetainedUnits is the high-water mark of merged day units
	// simultaneously resident in memory.
	PeakRetainedUnits int
	// UnitsEvicted counts day units written to disk to make room in
	// memory. Each worker holds one unit and commits it before taking
	// another day, so it always reads 0.
	UnitsEvicted int
}

// MemStats returns the retained-unit accounting of the campaign's most
// recent (or in-progress) run.
func (c *Campaign) MemStats() MemStats {
	return MemStats{PeakRetainedUnits: int(c.peakRetained.Load())}
}

// unitBytes is the resident size of one merged day unit's records.
func unitBytes(recs []sim.Sighting) int64 {
	return int64(len(recs)) * int64(unsafe.Sizeof(sim.Sighting{}))
}

// retainUnit records one merged day unit entering memory.
func (c *Campaign) retainUnit(bytes int64) {
	n := c.retained.Add(1)
	for {
		p := c.peakRetained.Load()
		if n <= p || c.peakRetained.CompareAndSwap(p, n) {
			break
		}
	}
	s := campaignObs.Get()
	s.retained.Add(1)
	s.retainedPeak.Set(c.peakRetained.Load())
	s.residentBytes.Add(bytes)
}

// releaseUnit records one merged day unit leaving memory.
func (c *Campaign) releaseUnit(bytes int64) {
	c.retained.Add(-1)
	s := campaignObs.Get()
	s.retained.Add(-1)
	s.residentBytes.Add(-bytes)
}

// campaignStats holds the campaign engine's instrument handles.
type campaignStats struct {
	retained      *obs.Gauge // i2p_measure_retained_units
	retainedPeak  *obs.Gauge // i2p_measure_retained_units_peak
	residentBytes *obs.Gauge // i2p_measure_resident_bytes
}

var campaignObs = obs.NewLazy(func(r *obs.Registry) campaignStats {
	return campaignStats{
		retained: r.Gauge("i2p_measure_retained_units",
			"Merged day units currently resident in campaign memory."),
		retainedPeak: r.Gauge("i2p_measure_retained_units_peak",
			"High-water mark of simultaneously resident merged day units."),
		residentBytes: r.Gauge("i2p_measure_resident_bytes",
			"Bytes of merged day records (sightings) resident in campaign memory."),
	}
})

// snapshotter persists one day's merged netDb at a time. Day directories
// are staged under a temp name and renamed into place so readers (and
// interrupted runs) only ever see complete days.
type snapshotter struct {
	c     *Campaign
	store *netdb.Store
}

func (c *Campaign) newSnapshotter() (*snapshotter, error) {
	if c.cfg.SnapshotDir == "" {
		return &snapshotter{}, nil
	}
	if err := os.MkdirAll(c.cfg.SnapshotDir, 0o755); err != nil {
		return nil, fmt.Errorf("measure: snapshot dir: %w", err)
	}
	// A crash between stage and rename leaves a ".day-NNN.tmp" staging
	// dir behind. Sweep them at startup: they are partial by definition
	// (the rename never happened) and must never be mistaken for — or
	// left to shadow — a complete day.
	entries, err := os.ReadDir(c.cfg.SnapshotDir)
	if err != nil {
		return nil, fmt.Errorf("measure: snapshot dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, ".day-") && strings.HasSuffix(name, ".tmp") {
			if err := os.RemoveAll(filepath.Join(c.cfg.SnapshotDir, name)); err != nil {
				return nil, fmt.Errorf("measure: sweeping orphan snapshot %s: %w", name, err)
			}
		}
	}
	return &snapshotter{c: c, store: netdb.NewStore()}, nil
}

// write persists the day's netDb: real routerInfo files are its point, so
// this is where the campaign's sightings become RouterInfos.
func (s *snapshotter) write(day int, recs []sim.Sighting) error {
	if s.store == nil {
		return nil
	}
	s.store.Clear() // the daily cleanup of Section 4.3
	for _, rec := range recs {
		s.store.PutRouterInfo(s.c.net.RouterInfo(day, rec))
	}
	final := filepath.Join(s.c.cfg.SnapshotDir, fmt.Sprintf("day-%03d", day))
	tmp := filepath.Join(s.c.cfg.SnapshotDir, fmt.Sprintf(".day-%03d.tmp", day))
	if err := os.RemoveAll(tmp); err != nil {
		return fmt.Errorf("measure: snapshot: %w", err)
	}
	if err := s.store.SaveDir(filepath.Join(tmp, "netDb")); err != nil {
		os.RemoveAll(tmp)
		return err
	}
	// Same durability contract as internal/checkpoint's stage→fsync→
	// rename: fsync the staged tree before the rename and the parent
	// after it, or a power loss can leave a "complete" day-NNN directory
	// holding truncated routerInfo files (SaveDir itself never syncs).
	// The campaign checkpoint unit is written after this snapshot, so a
	// day unit on disk implies its snapshot is durable too.
	if err := checkpoint.SyncTree(tmp); err != nil {
		os.RemoveAll(tmp)
		return fmt.Errorf("measure: snapshot: %w", err)
	}
	if err := os.RemoveAll(final); err != nil {
		os.RemoveAll(tmp)
		return fmt.Errorf("measure: snapshot: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.RemoveAll(tmp)
		return fmt.Errorf("measure: snapshot: %w", err)
	}
	if err := checkpoint.SyncDir(s.c.cfg.SnapshotDir); err != nil {
		return fmt.Errorf("measure: snapshot: %w", err)
	}
	return nil
}
