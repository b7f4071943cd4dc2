// Package service is the resident distributor daemon behind
// cmd/i2pdistribd: the batch pipeline's distrib.Backend held live in a
// process and served over HTTP. Where distrib.Sweep asks "how fast does
// a censor enumerate this channel", the service is the channel — the
// rdsys-style backend ring, the same HandoutAPI request → handout code
// path the sweeps' determinism goldens cover, fronted by a moat-style
// JSON API, an i2pseeds.su3 endpoint reusing internal/reseed's bundle
// codec, a kraken-style reachability prober that retires dead bridges,
// token-bucket rate limiting and an AddrSet-backed operator blacklist.
//
// Two invariants carry over from the batch side and are load-bearing
// here:
//
//   - Handout determinism: a request's bridge set is a pure function of
//     (identity, distributor, day, attempt) through HandoutAPI.Serve.
//     Restarting the daemon on the same network/seed serves
//     byte-identical JSON (TestHandoutGoldenAcrossRestart).
//
//   - Stable hashring assignment: retiring a dead bridge filters it out
//     of responses but never rebuilds the ring, so surviving bridges
//     keep their frontend assignment and arc positions
//     (FuzzHashringAssignment's retirement extension).
//
// The daemon adds one of its own: everything a request is answered from
// — day, ring, handout API, pre-encoded bodies, retired set, seed
// bundles — is one immutable epoch behind one atomic pointer. A handler
// loads it once; a retirement is one swap to a successor, and one whose
// bundles cannot be built swaps nothing (TestRetirementIsOneSwap,
// TestFailedRetirementPublishesNothing).
package service

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/i2pstudy/i2pstudy/internal/censor"
	"github.com/i2pstudy/i2pstudy/internal/distrib"
	"github.com/i2pstudy/i2pstudy/internal/netdb"
	"github.com/i2pstudy/i2pstudy/internal/obs"
	"github.com/i2pstudy/i2pstudy/internal/reseed"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// Config parameterizes the daemon.
type Config struct {
	// Day is the distribution day the backend pool is drawn on.
	Day int
	// Strategy selects the candidate pool (the zero value is
	// censor.BridgeRandom; cmd/i2pdistribd defaults its flag to the
	// paper's combined mix).
	Strategy censor.BridgeStrategy
	// MaxResources caps the pool (<= 0: distrib.DefaultMaxResources,
	// matching distrib.Sweep).
	MaxResources int
	// Seed drives the backend build.
	Seed uint64
	// Distributors are the frontends (nil: distrib.DefaultDistributors).
	Distributors []distrib.Distributor

	// RatePerSec is the per-identity token-bucket refill rate
	// (<= 0: rate limiting disabled).
	RatePerSec float64
	// Burst is the per-identity bucket depth (<= 0: NewLimiter's
	// default of 2).
	Burst int

	// ProbeInterval is the reachability-probe loop period and the
	// initial per-bridge backoff after a failed probe, doubling per
	// consecutive failure (<= 0: 30s).
	ProbeInterval time.Duration
	// FailLimit is the consecutive-failure streak that retires a bridge
	// (<= 0: 3).
	FailLimit int
	// Probe overrides the reachability check (nil: the simulated default,
	// "is the peer online on Day"). The prober calls it off the request
	// path.
	Probe ProbeFunc

	// Now overrides the clock for tests (nil: time.Now).
	Now func() time.Time

	// Registry is the obs registry the instrument set lives on (nil: a
	// fresh private one). cmd/i2pdistribd passes the registry it
	// obs.Enable'd, so /metrics carries the engine counter families
	// (i2p_engine_*, i2p_cache_*) next to the handout series.
	Registry *obs.Registry
}

func (cfg Config) withDefaults() Config {
	if cfg.MaxResources <= 0 {
		cfg.MaxResources = distrib.DefaultMaxResources
	}
	if cfg.Distributors == nil {
		cfg.Distributors = distrib.DefaultDistributors()
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 30 * time.Second
	}
	if cfg.FailLimit <= 0 {
		cfg.FailLimit = 3
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return cfg
}

// Service is the resident distributor. Handlers are lock-free: what they
// answer from is the epoch, replaced whole and never modified. What is
// per-client rather than per-pool — the limiter table, the blacklist —
// and the probe loop's own bookkeeping stay outside it.
type Service struct {
	cfg Config
	net *sim.Network

	metrics   *Metrics
	limiter   *Limiter
	blacklist *Blacklist

	epoch atomic.Pointer[epoch]

	// prober state, owned by the probe loop; proberState is the copy
	// each completed sweep publishes for everyone else.
	streaks     map[int]int
	nextDue     map[int]time.Time
	proberState atomic.Pointer[ProberState]

	// started stamps construction time for /healthz uptime.
	started time.Time
}

// epoch is the serving state of one distribution day. It is immutable
// once published: retirement copies it, replaces retired and bundles in
// the copy and publishes that, sharing everything else.
type epoch struct {
	day     int
	backend *distrib.Backend
	api     *distrib.HandoutAPI

	// frontends (by distributor name) and fragments (by peer index) are
	// the pre-encoded parts of a handout body (preencode).
	frontends map[string]*frontend
	fragments map[int][]byte

	// retired is the set of retired peer indexes (nil: nothing retired).
	retired map[int]bool

	// bundles holds one pre-built su3 bundle per manual-reseed partition
	// slot, built against retired (grants there never rotate, so a
	// partition of n resources has exactly n distinct handouts).
	bundles *reseed.BundleSet
}

// NewService draws the day's pool and builds the serving state.
func NewService(network *sim.Network, cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:       cfg,
		net:       network,
		metrics:   NewMetricsOn(cfg.Registry),
		limiter:   NewLimiter(cfg.RatePerSec, cfg.Burst, cfg.Now),
		blacklist: NewBlacklist(censor.IndexFor(network)),
		streaks:   make(map[int]int),
		nextDue:   make(map[int]time.Time),
		started:   cfg.Now(),
	}
	if cfg.Probe == nil {
		s.cfg.Probe = s.simProbe
	}
	ep, err := s.newEpoch(cfg.Day)
	if err != nil {
		return nil, err
	}
	s.publish(ep)
	s.publishProberState(time.Time{}) // no sweep yet
	return s, nil
}

// newEpoch draws day's pool and builds everything served from it. It is
// the only place a backend, handout API, pre-encoded table or bundle set
// is built.
func (s *Service) newEpoch(day int) (*epoch, error) {
	backend, err := distrib.NewBackend(s.net, distrib.BackendConfig{
		Strategy:     s.cfg.Strategy,
		Day:          day,
		MaxResources: s.cfg.MaxResources,
		Seed:         s.cfg.Seed,
	}, s.cfg.Distributors)
	if err != nil {
		return nil, err
	}
	api, err := distrib.NewHandoutAPI(backend, s.cfg.Distributors)
	if err != nil {
		return nil, err
	}
	ep := &epoch{day: day, backend: backend, api: api}
	if err := ep.preencode(s.metrics); err != nil {
		return nil, err
	}
	if err := ep.buildBundles(); err != nil {
		return nil, err
	}
	return ep, nil
}

// publish makes ep the serving state and brings the per-distributor live
// pool-size gauges in line with it.
func (s *Service) publish(ep *epoch) {
	s.epoch.Store(ep)
	for _, name := range ep.api.Distributors() {
		part := ep.backend.Partition(name)
		if part == nil {
			continue
		}
		live := 0
		for _, r := range part.Resources() {
			if !ep.retired[r.Peer] {
				live++
			}
		}
		s.metrics.SetPoolSize(name, live)
	}
}

// Backend returns the current epoch's immutable backend ring.
func (s *Service) Backend() *distrib.Backend { return s.epoch.Load().backend }

// HandoutAPI returns the shared handout code path, bound to that ring.
func (s *Service) HandoutAPI() *distrib.HandoutAPI { return s.epoch.Load().api }

// Blacklist returns the operator blacklist.
func (s *Service) Blacklist() *Blacklist { return s.blacklist }

// RetiredCount returns how many bridges have been retired.
func (s *Service) RetiredCount() int { return len(s.epoch.Load().retired) }

// Serve resolves a request against the current epoch through the shared
// handout path and filters retired bridges out of a copy of the arc —
// the bridges /handout's body carries, which writeHandout filters as it
// appends instead. The ring is never rebuilt — survivors keep their arc
// positions — so the filtered handout is a subsequence of the
// pre-retirement one.
func (s *Service) Serve(req distrib.Request) (distrib.Handout, error) {
	ep := s.epoch.Load()
	req.Day = ep.day
	h, err := ep.api.Serve(req)
	if err != nil {
		return distrib.Handout{}, err
	}
	if len(ep.retired) > 0 && len(h.Resources) > 0 {
		kept := make([]distrib.Resource, 0, len(h.Resources))
		for _, r := range h.Resources {
			if !ep.retired[r.Peer] {
				kept = append(kept, r)
			}
		}
		h.Resources = kept
	}
	return h, nil
}

// retire marks peers dead: it builds a successor of the current epoch —
// a fresh retired set, the seed bundles re-signed against it, everything
// else shared and nothing the predecessor holds mutated — and publishes
// it with one swap, then counts each newly retired peer. If the bundles
// cannot be built nothing is published: the peers stay live on every
// endpoint and the error is the caller's to report. retire loads and
// stores the pointer without a lock, so it has one caller at a time: the
// probe loop (ProbeOnce), which is also what owns streaks and nextDue.
func (s *Service) retire(peers []int) error {
	old := s.epoch.Load()
	next := *old
	next.retired = make(map[int]bool, len(old.retired)+len(peers))
	for p := range old.retired {
		next.retired[p] = true
	}
	for _, p := range peers {
		next.retired[p] = true
	}
	fresh := len(next.retired) - len(old.retired)
	if fresh == 0 {
		return nil
	}
	if err := next.buildBundles(); err != nil {
		return err
	}
	s.publish(&next)
	s.metrics.probe.With("retired").Add(uint64(fresh))
	return nil
}

// bundleSigner names the su3 bundles' signer.
const bundleSigner = "i2pdistribd"

// buildBundles pre-encodes one su3 bundle per manual-reseed partition
// slot against the epoch's retired set. A missing manual-reseed frontend
// leaves the epoch without bundles.
func (ep *epoch) buildBundles() error {
	part := ep.backend.Partition("manual-reseed")
	if part == nil || part.Len() == 0 {
		return nil
	}
	d, ok := ep.api.Distributor("manual-reseed")
	if !ok {
		return nil
	}
	g, ok := d.Grant(0, ep.day, 0)
	if !ok {
		return nil
	}
	res := part.Resources()
	groups := make([][]*netdb.RouterInfo, len(res))
	for slot := range res {
		arc := part.GetMany(res[slot].Key, g.Count)
		records := make([]*netdb.RouterInfo, 0, len(arc))
		for _, r := range arc {
			if !ep.retired[r.Peer] {
				records = append(records, r.Record)
			}
		}
		groups[slot] = records
	}
	set, err := reseed.BuildBundleSet(groups, bundleSigner, ep.backend.When)
	if err != nil {
		return fmt.Errorf("service: build seed bundles: %w", err)
	}
	ep.bundles = set
	return nil
}

// simProbe is the default reachability check: the bridge is up when its
// peer is online in the simulated network on the day being served —
// what a kraken-style prober would learn by dialing the published
// address.
func (s *Service) simProbe(r distrib.Resource) error {
	if !s.net.Peers[r.Peer].ActiveOn(s.epoch.Load().day) {
		return fmt.Errorf("service: peer %d offline", r.Peer)
	}
	return nil
}
