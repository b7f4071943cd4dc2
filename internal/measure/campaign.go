package measure

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"

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
	// day) whichever worker runs it, and days fold in ascending order.
	// Parallelism is across days only, so a campaign shorter than the
	// worker count does not fan out within a day.
	Workers int
	// CheckpointDir, when non-empty, spills each completed day's merged
	// sightings — (peer index, draw) records, checksummed per unit — to a
	// checkpoint.Store so an interrupted campaign resumes by loading
	// finished days instead of recomputing them. The directory is keyed
	// by a manifest (network + fleet config hash, seed, engine version);
	// resuming against state from a different run, or from an older
	// format, fails with a *checkpoint.MismatchError. A loaded unit is
	// verified against the network before it is folded. Because
	// accumulation always proceeds in ascending day order, a resumed
	// run's Dataset is byte-identical to an uninterrupted one at any
	// Workers value.
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

	// Retained-unit accounting (see stream.go / MemStats).
	retained     atomic.Int64
	peakRetained atomic.Int64

	// scribble, when set, is handed every unit buffer, to its capacity,
	// once its day is committed and before the buffer is refilled: a
	// test seam that overwrites it, proving nothing reads a unit after
	// its commit.
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
// One day is one task. A worker takes the next day in ascending order
// once it is within the admission window of the fold (see dayWindow),
// captures the whole fleet for it, and parks the merged unit; whichever
// worker parks the next day due folds it, and any later days already
// parked, into the Dataset. Capture of later days therefore overlaps
// the fold and snapshot of earlier ones, while accumulation itself always
// proceeds in ascending day order whatever the worker count.
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
	from := c.cfg.StartDay
	if c.cfg.CheckpointDir != "" {
		store, err = checkpoint.Open(c.cfg.CheckpointDir, c.checkpointManifest())
		if err != nil {
			return nil, err
		}
		from, err = c.resume(f, snap, store)
		if err != nil {
			return nil, err
		}
	}
	var unit []byte // the encode buffer: the window serializes folds
	err = c.run(ctx, from, func(day int, recs []sim.Sighting) error {
		return c.commitDay(f, snap, store, &unit, day, recs)
	})
	if err != nil {
		return nil, err
	}
	return ds, nil
}

// resume folds previously checkpointed days into f and returns the
// first day still to compute. Days are committed strictly in ascending
// order, so checkpointed days form a contiguous prefix; a stray later
// unit — possible only if a past run used a different day range, which
// the manifest hash already refuses — is simply recomputed and
// overwritten. Every unit decodes into one buffer, refilled day to day.
func (c *Campaign) resume(f *folder, snap *snapshotter, store *checkpoint.Store) (int, error) {
	day := c.cfg.StartDay
	var recs []sim.Sighting
	for ; day < c.cfg.EndDay; day++ {
		data, ok, err := store.Load(dayKey(day))
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		recs, err = decodeDayUnit(c.net, day, data, recs)
		if err != nil {
			return 0, fmt.Errorf("checkpoint unit %s in %s: %w", dayKey(day), c.cfg.CheckpointDir, err)
		}
		f.fold(day, recs)
		// Re-write the snapshot so resumed runs leave the same SnapshotDir
		// an uninterrupted run would (cheap, idempotent, atomic).
		if err := snap.write(day, recs); err != nil {
			return 0, err
		}
		c.committed(recs)
	}
	return day, nil
}

// commitDay finalizes one computed day: fold into the Dataset, persist
// the netDb snapshot, spill the checkpoint unit, and cross the fault
// boundary. The checkpoint write comes last of the persistence steps,
// so a unit on disk guarantees the snapshot for that day is complete.
// The unit is encoded into *unit, the run's one encode buffer; nothing
// holds recs once commitDay returns.
func (c *Campaign) commitDay(f *folder, snap *snapshotter, store *checkpoint.Store, unit *[]byte, day int, recs []sim.Sighting) error {
	f.fold(day, recs)
	if err := snap.write(day, recs); err != nil {
		return err
	}
	if store != nil {
		*unit = encodeDayUnit((*unit)[:0], recs)
		if err := store.Save(dayKey(day), *unit); err != nil {
			return err
		}
	}
	return faults.Hit("measure.campaign.day")
}

// run drives days [from, EndDay) through capture and, in ascending day
// order, commit, on the resolved number of workers.
func (c *Campaign) run(ctx context.Context, from int, commit func(day int, recs []sim.Sighting) error) error {
	nDays := c.cfg.EndDay - from
	if nDays <= 0 {
		return ctx.Err()
	}
	workers := min(pool.Width(c.cfg.Workers), nDays)
	win := newDayWindow(from, c.cfg.EndDay, windowFactor*workers)
	// A run that stops early strands the units parked behind the failure.
	defer func() {
		for _, u := range win.drain() {
			c.releaseUnit(u.bytes)
		}
		// Workers publish the peak as they raise it, last writer wins, so
		// a stale Set can land last; the joined run's value is exact.
		campaignObs.Get().retainedPeak.Set(c.peakRetained.Load())
	}()
	// A committed unit goes back to the window before its day's slot
	// does (work calls folded after fold), for a later capture to refill.
	fold := func(day int, u *dayUnit) error {
		err := commit(day, u.recs)
		c.releaseUnit(u.bytes)
		c.committed(u.recs)
		win.recycle(u)
		return err
	}
	return pool.Run(ctx, workers, func(ctx context.Context, tid int) (int, error) {
		return c.work(ctx, win, tid, fold)
	})
}

// work is one worker's loop: admit a day, capture it, park it, then fold
// whatever is due. At Workers 1 it runs on the caller's goroutine and
// every day it parks is the day due, so the loop degenerates to capture,
// fold, capture, fold. It returns how many days it captured, which the
// pool counts as engine tasks.
func (c *Campaign) work(ctx context.Context, win *dayWindow, tid int, fold func(day int, u *dayUnit) error) (int, error) {
	sc := c.newDayCapture()
	tr := obs.ActiveTracer()
	captured := 0
	for {
		day, ok, err := win.admit(ctx)
		if err != nil || !ok {
			return captured, err
		}
		t0 := tr.Now()
		u := c.captureDay(day, sc, win.reuse())
		captured++
		tr.Complete(tid, "day", t0, obs.Arg{Key: "day", Val: int64(day)})
		c.retainUnit(u.bytes)
		if err := win.put(day, u); err != nil {
			c.releaseUnit(u.bytes)
			return captured, err
		}
		// Every captured day is a scheduler boundary the fault injector
		// may target, as every FanOut task is.
		if err := faults.Hit("pool.task"); err != nil {
			return captured, err
		}
		for {
			due, u, ok := win.take()
			if !ok {
				break
			}
			// A failed fold keeps its turn: no later day may fold (or
			// reach the checkpoint store) behind a day that did not.
			if err := fold(due, u); err != nil {
				return captured, err
			}
			win.folded()
		}
	}
}

// dayCapture is one worker's scratch for capturing days, reused from day
// to day. The sorted unit a capture returns is not part of it: that
// buffer comes from the admission window's free list.
type dayCapture struct {
	claimed sim.ClaimSet
	recs    []sim.Sighting // the day's sightings in capture order
	pos     []int32        // by peer index, the peer's position in recs (sortByPeer)
}

func (c *Campaign) newDayCapture() *dayCapture {
	return &dayCapture{claimed: c.net.NewClaimSet(), pos: make([]int32, len(c.net.Peers))}
}

// captureDay is the merge: observers in fleet order over one claim set, so
// each peer's sighting is the first observer's to see it — what "newest
// wins, ties to the earliest observer" resolves to when every observer
// stamps the day's time — and no other is kept. The result is sorted by
// peer index, the fold order that makes interned IDs (and checkpoint
// bytes) deterministic.
//
// The sorted sightings refill u, a committed unit; when u is nil, a new
// unit is made with room for the day's active peers, which bound its
// sightings, so a later day refilling it rarely has to grow it.
func (c *Campaign) captureDay(day int, sc *dayCapture, u *dayUnit) *dayUnit {
	clear(sc.claimed)
	// The claim set bounds the day's sightings by its active peers, so
	// the scratch grows at most once, here, and never observer by
	// observer.
	sc.recs = slices.Grow(sc.recs[:0], len(c.net.ActivePeers(day)))
	for _, o := range c.obs {
		sc.recs = o.CaptureDay(day, sc.claimed, sc.recs)
	}
	if u == nil {
		u = &dayUnit{recs: make([]sim.Sighting, 0, len(c.net.ActivePeers(day)))}
	}
	u.recs = sc.sortByPeer(u.recs)
	u.bytes = unitBytes(u.recs)
	return u
}

// committed passes a committed unit's buffer to the scribble seam, if
// one is set, before the buffer is refilled.
func (c *Campaign) committed(recs []sim.Sighting) {
	if c.scribble != nil {
		c.scribble(recs[:cap(recs)])
	}
}

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
