package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"github.com/i2pstudy/i2pstudy/internal/checkpoint"
	"github.com/i2pstudy/i2pstudy/internal/core"
	"github.com/i2pstudy/i2pstudy/internal/measure"
	"github.com/i2pstudy/i2pstudy/internal/netdb"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// storeRoot is where the durable workload keeps its checkpoint store:
// under the output directory, inside the checkout, unless -store names
// another place. fsync on this sandbox's virtual disk is slower and
// noisier than tmpfs (write_s 3.2–3.7 s against 3.1–3.5 s on /dev/shm);
// that is the hypervisor's behaviour and not the program's, so the
// choice is recorded in the env block and the store's size is reported
// as counts.
func storeRoot(p params) string {
	if p.store != "" {
		return p.store
	}
	return p.out
}

// durableWorkload is the census campaign with a checkpoint store: the
// 20-observer × 45-day campaign run into an empty store, then a second
// campaign over the finished store, which loads, decodes and folds the
// 45 day units and computes nothing.
type durableWorkload struct {
	p     params
	peers int
	dir   string // removed and rewritten every iteration

	net             *sim.Network
	written, resume *measure.Dataset
	writeS, resumeS float64
}

func newDurable(p params) (*durableWorkload, error) {
	if err := os.MkdirAll(storeRoot(p), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(storeRoot(p), "durable-")
	return &durableWorkload{p: p, peers: p.peersOr(6100), dir: dir}, err
}

// close removes the store.
func (d *durableWorkload) close() { os.RemoveAll(d.dir) }

func (d *durableWorkload) store() string { return filepath.Join(d.dir, "store") }

func (d *durableWorkload) setup() error {
	d.written, d.resume = nil, nil
	if err := os.RemoveAll(d.store()); err != nil {
		return err
	}
	var err error
	d.net, err = newNetwork(d.p.seed, d.peers)
	return err
}

// campaign runs the main campaign as core.Study.MainDataset configures
// it, with the given checkpoint directory ("" for none).
func (d *durableWorkload) campaign(ckpt string) (*measure.Dataset, error) {
	c, err := measure.NewCampaign(d.net, measure.CampaignConfig{
		Observers:     measure.DefaultObserverFleet(core.DefaultOptions().MainFleetSize),
		EndDay:        days,
		CheckpointDir: ckpt,
	})
	if err != nil {
		return nil, err
	}
	return c.Run()
}

func (d *durableWorkload) run(rec *recorder, parent int) error {
	t0 := time.Now()
	err := rec.do(parent, "measure.Campaign.Run/write", func(int) error {
		var err error
		d.written, err = d.campaign(d.store())
		return err
	})
	if err != nil {
		return err
	}
	t1 := time.Now()
	err = rec.do(parent, "measure.Campaign.Run/resume", func(int) error {
		var err error
		d.resume, err = d.campaign(d.store())
		return err
	})
	d.writeS, d.resumeS = t1.Sub(t0).Seconds(), time.Since(t1).Seconds()
	return err
}

func (d *durableWorkload) own() sample {
	return sample{"write_s": d.writeS, "resume_s": d.resumeS}
}

func (d *durableWorkload) check(t *tally) string {
	t.ops(2, 0, "") // the write and the resume
	t.op(sameDataset(d.written, d.resume))
	return ""
}

// sameDataset is the gate on resume: a Dataset folded from the store is
// indistinguishable from the one that was computed.
func sameDataset(written, resumed *measure.Dataset) error {
	if !reflect.DeepEqual(written, resumed) {
		return fmt.Errorf("the resumed Dataset differs from the written one")
	}
	return nil
}

// layers times what the store costs: the checkpoint layer alone on the
// real unit payloads, the record codec alone, and the same campaign with
// no store at all.
func (d *durableWorkload) layers(rec *recorder, ref sample) (sample, error) {
	root := rec.root
	// The traced iteration left a finished store behind; walk it.
	var payloads [][]byte
	var storeBytes, files, units int
	entries, err := os.ReadDir(d.store())
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(d.store(), e.Name()))
		if err != nil {
			return nil, err
		}
		files++
		storeBytes += len(data)
		if strings.HasPrefix(e.Name(), "day-") {
			units++
			payloads = append(payloads, data)
		}
	}

	scratch, err := checkpoint.Open(filepath.Join(d.dir, "scratch"), checkpoint.Manifest{Engine: "bench", Version: 1, Seed: d.p.seed})
	if err != nil {
		return nil, err
	}
	payloadBytes := 0
	err = rec.do(root, "checkpoint.Store.Save", func(int) error {
		for i, data := range payloads {
			payloadBytes += len(data)
			if err := scratch.Save(fmt.Sprintf("unit-%03d", i), data); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = rec.do(root, "checkpoint.Store.Load", func(int) error {
		for i := range payloads {
			if _, ok, err := scratch.Load(fmt.Sprintf("unit-%03d", i)); err != nil || !ok {
				return fmt.Errorf("loading unit %d back: ok=%v err=%v", i, ok, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The record codec over one observer-day.
	recs := d.net.NewObserver(measure.DefaultObserverFleet(1)[0]).CollectDay(days / 2)
	encoded := make([][]byte, len(recs))
	err = rec.do(root, "netdb.RouterInfo.Encode", func(int) error {
		for i, ri := range recs {
			if encoded[i], err = ri.Encode(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = rec.do(root, "netdb.DecodeRouterInfo", func(int) error {
		for _, data := range encoded {
			if _, err := netdb.DecodeRouterInfo(data); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	if err := rec.do(root, "measure.Campaign.Run/no-store", func(int) error { _, err := d.campaign(""); return err }); err != nil {
		return nil, err
	}

	// cmd/i2pmeasure -snapshot-dir: three observers, three days of
	// routerInfo files. fsync- and inode-bound; informational.
	err = rec.do(root, "measure.Campaign.Run/snapshot", func(int) error {
		c, err := measure.NewCampaign(d.net, measure.CampaignConfig{
			Observers: measure.DefaultObserverFleet(3), EndDay: 3, SnapshotDir: filepath.Join(d.dir, "snapshots"),
		})
		if err == nil {
			_, err = c.Run()
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	save := rec.seconds("checkpoint.Store.Save")
	return sample{
		"checkpoint.save_s":             save,
		"checkpoint.load_s":             rec.seconds("checkpoint.Store.Load"),
		"checkpoint.save_mb_per_s":      float64(payloadBytes) / 1e6 / save,
		"checkpoint.store_mb":           float64(storeBytes) / 1e6,
		"checkpoint.units":              float64(units),
		"checkpoint.files":              float64(files),
		"netdb.encode_ns":               rec.seconds("netdb.RouterInfo.Encode") * 1e9 / float64(len(recs)),
		"netdb.decode_ns":               rec.seconds("netdb.DecodeRouterInfo") * 1e9 / float64(len(recs)),
		"measure.durability_overhead_s": rec.seconds("measure.Campaign.Run/write") - rec.seconds("measure.Campaign.Run/no-store"),
		"measure.resume_units_per_s":    float64(units) / ref["resume_s"],
		"measure.snapshot_s":            rec.seconds("measure.Campaign.Run/snapshot"),
	}, nil
}
