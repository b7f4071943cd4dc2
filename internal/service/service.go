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
package service

import (
	"fmt"
	"sync"
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
	// MaxResources caps the pool (<= 0: 200, matching distrib.Sweep).
	MaxResources int
	// Seed drives the backend build.
	Seed uint64
	// Distributors are the frontends (nil: distrib.DefaultDistributors).
	Distributors []distrib.Distributor
	// Signer names the su3 bundle signer (default "i2pdistribd").
	Signer string

	// RatePerSec is the per-identity token-bucket refill rate
	// (<= 0: rate limiting disabled).
	RatePerSec float64
	// Burst is the per-identity bucket depth (<= 0: 2).
	Burst int

	// ProbeInterval is the reachability-probe loop period
	// (<= 0: 30s).
	ProbeInterval time.Duration
	// FailLimit is the consecutive-failure streak that retires a bridge
	// (<= 0: 3).
	FailLimit int
	// ProbeBackoff is the initial per-bridge backoff after a failed
	// probe, doubling per consecutive failure (<= 0: ProbeInterval).
	ProbeBackoff time.Duration
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
		cfg.MaxResources = 200
	}
	if cfg.Distributors == nil {
		cfg.Distributors = distrib.DefaultDistributors()
	}
	if cfg.Signer == "" {
		cfg.Signer = "i2pdistribd"
	}
	if cfg.Burst <= 0 {
		cfg.Burst = 2
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 30 * time.Second
	}
	if cfg.FailLimit <= 0 {
		cfg.FailLimit = 3
	}
	if cfg.ProbeBackoff <= 0 {
		cfg.ProbeBackoff = cfg.ProbeInterval
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return cfg
}

// Service is the resident distributor. Request handlers are lock-free
// against the pool state: retirements publish a fresh retired-set and
// bundle table with atomic swaps, mirroring how the immutable Backend
// is shared by sweep cells.
type Service struct {
	cfg     Config
	net     *sim.Network
	backend *distrib.Backend
	api     *distrib.HandoutAPI
	ix      *censor.AddrIndex

	metrics   *Metrics
	limiter   *Limiter
	blacklist *Blacklist

	// frontends (by distributor name) and fragments (by peer index) are
	// the pre-encoded parts of a handout body; immutable after
	// NewService (preencode).
	frontends map[string]*frontend
	fragments map[int][]byte

	// retired is the atomically published set of retired peer indexes
	// (nil map: nothing retired). Handlers read it lock-free; retire()
	// copies, extends and swaps under retireMu.
	retired  atomicMap
	retireMu sync.Mutex

	// bundles caches one pre-built su3 bundle per manual-reseed partition
	// slot (grants there never rotate, so a partition of n resources has
	// exactly n distinct handouts). Rebuilt and swapped on retirement.
	bundles reseed.BundleCache

	// prober state, owned by the probe loop; proberState is the copy
	// each completed sweep publishes for everyone else.
	streaks     map[int]int
	nextDue     map[int]time.Time
	proberState atomic.Pointer[ProberState]

	// started stamps construction time for /healthz uptime.
	started time.Time
}

// NewService draws the day's pool and builds the serving state.
func NewService(network *sim.Network, cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	backend, err := distrib.NewBackend(network, distrib.BackendConfig{
		Strategy:     cfg.Strategy,
		Day:          cfg.Day,
		MaxResources: cfg.MaxResources,
		Seed:         cfg.Seed,
	}, cfg.Distributors)
	if err != nil {
		return nil, err
	}
	api, err := distrib.NewHandoutAPI(backend, cfg.Distributors)
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:     cfg,
		net:     network,
		backend: backend,
		api:     api,
		ix:      censor.IndexFor(network),
		metrics: NewMetricsOn(cfg.Registry),
		limiter: NewLimiter(cfg.RatePerSec, cfg.Burst, cfg.Now),
		streaks: make(map[int]int),
		nextDue: make(map[int]time.Time),
		started: cfg.Now(),
	}
	s.blacklist = NewBlacklist(s.ix)
	if cfg.Probe == nil {
		s.cfg.Probe = s.simProbe
	}
	s.retired.store(nil)
	s.publishProberState(time.Time{}) // no sweep yet
	if err := s.preencode(); err != nil {
		return nil, err
	}
	if err := s.rebuildBundles(); err != nil {
		return nil, err
	}
	s.refreshPoolGauges()
	return s, nil
}

// Backend returns the immutable backend ring.
func (s *Service) Backend() *distrib.Backend { return s.backend }

// HandoutAPI returns the shared handout code path.
func (s *Service) HandoutAPI() *distrib.HandoutAPI { return s.api }

// Metrics returns the instrument set.
func (s *Service) Metrics() *Metrics { return s.metrics }

// Blacklist returns the operator blacklist.
func (s *Service) Blacklist() *Blacklist { return s.blacklist }

// Retired reports whether a peer's bridge has been retired.
func (s *Service) Retired(peer int) bool { return s.retired.load()[peer] }

// RetiredCount returns how many bridges have been retired.
func (s *Service) RetiredCount() int { return len(s.retired.load()) }

// Serve resolves a request through the shared handout path and filters
// retired bridges out of the response. The ring is never rebuilt —
// survivors keep their arc positions — so the filtered handout is a
// subsequence of the pre-retirement one.
func (s *Service) Serve(req distrib.Request) (distrib.Handout, error) {
	req.Day = s.cfg.Day
	h, err := s.api.Serve(req)
	if err != nil {
		return distrib.Handout{}, err
	}
	retired := s.retired.load()
	if len(retired) > 0 && len(h.Resources) > 0 {
		kept := make([]distrib.Resource, 0, len(h.Resources))
		for _, r := range h.Resources {
			if !retired[r.Peer] {
				kept = append(kept, r)
			}
		}
		h.Resources = kept
	}
	return h, nil
}

// retire marks peers dead, publishes the extended retired set, rebuilds
// the manual-reseed bundle cache against it and refreshes the pool
// gauges. Handlers racing the swap serve either the old complete state
// or the new complete state.
func (s *Service) retire(peers []int) error {
	if len(peers) == 0 {
		return nil
	}
	s.retireMu.Lock()
	defer s.retireMu.Unlock()
	old := s.retired.load()
	next := make(map[int]bool, len(old)+len(peers))
	for p := range old {
		next[p] = true
	}
	changed := false
	for _, p := range peers {
		if !next[p] {
			next[p] = true
			changed = true
		}
	}
	if !changed {
		return nil
	}
	s.retired.store(next)
	if err := s.rebuildBundles(); err != nil {
		return err
	}
	s.refreshPoolGauges()
	return nil
}

// rebuildBundles pre-encodes one su3 bundle per manual-reseed partition
// slot against the current retired set and atomically swaps the table
// in. A missing manual-reseed frontend leaves the cache empty.
func (s *Service) rebuildBundles() error {
	part := s.backend.Partition("manual-reseed")
	if part == nil || part.Len() == 0 {
		return nil
	}
	d, ok := s.api.Distributor("manual-reseed")
	if !ok {
		return nil
	}
	g, ok := d.Grant(0, s.cfg.Day, 0)
	if !ok {
		return nil
	}
	retired := s.retired.load()
	res := part.Resources()
	groups := make([][]*netdb.RouterInfo, len(res))
	for slot := range res {
		arc := part.GetMany(res[slot].Key, g.Count)
		records := make([]*netdb.RouterInfo, 0, len(arc))
		for _, r := range arc {
			if !retired[r.Peer] {
				records = append(records, r.Record)
			}
		}
		groups[slot] = records
	}
	set, err := reseed.BuildBundleSet(groups, s.cfg.Signer, s.backend.When)
	if err != nil {
		return fmt.Errorf("service: rebuild bundle cache: %w", err)
	}
	s.bundles.Store(set)
	return nil
}

// refreshPoolGauges updates the per-distributor live pool-size gauges.
func (s *Service) refreshPoolGauges() {
	retired := s.retired.load()
	for _, name := range s.api.Distributors() {
		part := s.backend.Partition(name)
		if part == nil {
			continue
		}
		live := 0
		for _, r := range part.Resources() {
			if !retired[r.Peer] {
				live++
			}
		}
		s.metrics.SetPoolSize(name, live)
	}
}

// simProbe is the default reachability check: the bridge is up when its
// peer is online in the simulated network on the distribution day —
// what a kraken-style prober would learn by dialing the published
// address.
func (s *Service) simProbe(r distrib.Resource) error {
	if !s.net.Peers[r.Peer].ActiveOn(s.cfg.Day) {
		return fmt.Errorf("service: peer %d offline", r.Peer)
	}
	return nil
}

// atomicMap publishes an immutable map[int]bool by atomic pointer swap;
// readers never lock and stored maps are never mutated afterwards.
type atomicMap struct {
	p atomic.Pointer[map[int]bool]
}

func (a *atomicMap) load() map[int]bool {
	m := a.p.Load()
	if m == nil {
		return nil
	}
	return *m
}

func (a *atomicMap) store(m map[int]bool) { a.p.Store(&m) }
