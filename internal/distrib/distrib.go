// Package distrib is the bridge-distribution pipeline: the supply side of
// the Section 7.1 mitigation study. Where internal/censor evaluates how a
// fixed set of bridges decays under a monitoring-fleet blacklist, distrib
// models how bridges *reach* censored users in the first place — and how
// fast a censor can enumerate them through the distribution channels
// themselves. The design follows Tor's rdsys: a Backend holds the day's
// bridge resource pool (drawn from the existing censor.BridgeStrategy
// pools over sim.Network) and partitions it across distributor frontends
// via a stable hashring; Distributor implementations (HTTPS, Email,
// Social/Moat, ManualReseed backed by internal/reseed's i2pseeds bundles)
// each have a request model and an identity-cost leak profile; Enumerator
// agents (crawler, sybil-requester, insider) discover resources at
// configurable rates and feed discoveries into censor.AddrIndex-backed
// blacklists.
//
// Hashring partitioning invariant: a resource's frontend assignment
// depends only on (resource key, set of distributor names). Resource keys
// derive from peer identity hashes — never from addresses — so IP churn
// cannot move a bridge between frontends, resources joining or leaving
// the pool never reshuffle the others, and removing a distributor only
// reassigns its own arc of the ring. The MaxResources cap preserves this:
// it keeps the lowest ranks of an independent per-resource selection
// hash, so pool churn displaces at most the boundary resource of the
// sample.
//
// Two engines race the channels against the enumerators: distrib.Sweep
// returns one CellResult per (distributor, enumerator, day) row and
// TrustSweep one TrustRow per (enumerator, distributor) row, each
// holding its horizon as one result. Both serve handouts through the
// backend's own HandoutAPI (Backend.API, built by NewBackend) and run
// the crawler and sybil enumeration through one censor view (view.go).
//
// Determinism contract: both inherit the engine contract of
// censor.Sweep — rows fan out through pool.FanOut writing into slots
// indexed by grid position, every random draw derives from (SeedBase,
// row coordinates), and a row's days run in order, so any Workers value
// yields byte-identical results (TestDistribSweepWorkerDeterminism).
package distrib

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"slices"
	"sort"
	"time"

	"github.com/i2pstudy/i2pstudy/internal/censor"
	"github.com/i2pstudy/i2pstudy/internal/netdb"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// Resource is one distributable bridge: a peer drawn from a bridge
// strategy pool, frozen with the RouterInfo it was distributed with. The
// peers that record names as introducers are held by its Backend, not
// here: the daemon copies Resources per request, so a Resource stays
// three words.
type Resource struct {
	// Peer is the peer's index in the backend's network.
	Peer int
	// Key is the resource's stable hashring position, derived from the
	// peer's identity hash (see the partitioning invariant in the package
	// doc).
	Key uint64
	// Record is the RouterInfo materialized at the backend's distribution
	// day — what a handout (or an i2pseeds bundle) actually carries.
	Record *netdb.RouterInfo
}

// keyOf derives a resource's ring position from the peer identity hash.
func keyOf(id netdb.Hash) uint64 {
	h := fnv.New64a()
	h.Write(id[:])
	return h.Sum64()
}

// keyOfString hashes a label (distributor names, requester identities)
// onto the ring.
func keyOfString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// mix folds additional words into a ring key (splitmix64 finalizer).
func mix(k uint64, words ...uint64) uint64 {
	for _, w := range words {
		k ^= w + 0x9E3779B97F4A7C15 + (k << 6) + (k >> 2)
		k ^= k >> 30
		k *= 0xBF58476D1CE4E5B9
		k ^= k >> 27
		k *= 0x94D049BB133111EB
		k ^= k >> 31
	}
	return k
}

// ringVnodes is how many virtual nodes each distributor places on the
// backend ring; enough that a four-frontend split stays within a few
// percent of even at a few hundred resources.
const ringVnodes = 64

// vnode is one virtual node of a distributor arc.
type vnode struct {
	key  uint64
	dist string
}

// hashring is the pure assignment rule behind backend partitioning: a
// sorted vnode ring over a distributor name set. It is deliberately a
// function of the name set alone — never of the resource pool — which
// is the whole stable-assignment invariant (FuzzHashringAssignment).
type hashring []vnode

// buildRing places every distributor's virtual nodes on the ring.
// Assignment depends only on the *set* of names: the sort erases the
// caller's ordering.
func buildRing(names []string) hashring {
	ring := make(hashring, 0, len(names)*ringVnodes)
	for _, name := range names {
		for v := 0; v < ringVnodes; v++ {
			ring = append(ring, vnode{key: mix(keyOfString(name), uint64(v)), dist: name})
		}
	}
	sort.Slice(ring, func(i, j int) bool { return ring[i].key < ring[j].key })
	return ring
}

// owner returns the distributor owning a resource key: the first vnode
// clockwise from the key, wrapping.
func (r hashring) owner(key uint64) string {
	i := sort.Search(len(r), func(i int) bool { return r[i].key >= key })
	if i == len(r) {
		i = 0
	}
	return r[i].dist
}

// Backend holds one distribution day's resource pool, partitioned across
// the distributor frontends. A Backend is immutable after NewBackend and
// safe for unbounded concurrent use — sweep cells share it.
type Backend struct {
	// Day is the distribution day the pool was drawn on.
	Day int
	// When is the wall-clock time bundles created from this pool carry.
	When time.Time

	parts map[string]*Partition
	// pool maps each pool peer to the network indexes of the
	// introducers its resource's Record names, in record order (none for
	// a known-IP bridge): resolved from the same draw as the Record, so a
	// censor reading a handout blocks them by index (censorView.discover).
	// Membership is collateral accounting's InPool.
	pool map[int][]int32
	// api serves handouts from this pool to the distributors it was
	// partitioned across (API).
	api *HandoutAPI
}

// DefaultMaxResources is the pool cap the sweeps and the service apply
// when their config leaves MaxResources unset.
const DefaultMaxResources = 200

// BackendConfig parameterizes a backend build.
type BackendConfig struct {
	// Strategy selects the candidate pool (censor.BridgeCombined is the
	// paper's proposed mix).
	Strategy censor.BridgeStrategy
	// Day is the distribution day.
	Day int
	// MaxResources caps the pool (<= 0: no cap). The cap keeps handout
	// bundles and enumeration grids small at full network scale; see
	// capResources for the churn-stable sampling rule.
	MaxResources int
	// Seed drives RouterInfo materialization (ports, introducer draws).
	Seed uint64
}

// NewBackend draws the day's pool from the strategy, materializes each
// resource's RouterInfo and resolves its introducers, partitions the
// pool across the distributors on a stable hashring, and binds the
// distributors to it as the backend's HandoutAPI. Distributor names
// must be unique.
func NewBackend(network *sim.Network, cfg BackendConfig, distributors []Distributor) (*Backend, error) {
	if len(distributors) == 0 {
		return nil, fmt.Errorf("distrib: backend needs at least one distributor")
	}
	if cfg.Day < 0 || cfg.Day >= network.Days() {
		return nil, fmt.Errorf("distrib: distribution day %d outside the %d-day study", cfg.Day, network.Days())
	}
	api := &HandoutAPI{
		dists: make(map[string]Distributor, len(distributors)),
		names: make([]string, len(distributors)),
	}
	for i, d := range distributors {
		if _, dup := api.dists[d.Name()]; dup {
			return nil, fmt.Errorf("distrib: duplicate distributor %q", d.Name())
		}
		api.dists[d.Name()] = d
		api.names[i] = d.Name()
	}

	pool := censor.BridgePool(network, cfg.Strategy, cfg.Day)
	resources := make([]Resource, 0, len(pool))
	for _, idx := range pool {
		resources = append(resources, Resource{Peer: idx, Key: keyOf(network.Peers[idx].ID)})
	}
	resources = capResources(resources, cfg.MaxResources)
	// Ring order is the canonical resource order everywhere below.
	slices.SortFunc(resources, func(a, b Resource) int { return cmp.Compare(a.Key, b.Key) })

	b := &Backend{
		Day:   cfg.Day,
		When:  network.DayTime(cfg.Day),
		parts: make(map[string]*Partition, len(distributors)),
		pool:  make(map[int][]int32, len(resources)),
		api:   api,
	}
	api.backend = b

	ring := buildRing(api.names)
	owned := make(map[string][]Resource, len(distributors))
	for _, r := range resources {
		// Materialize records once, with a per-resource stream derived from
		// (seed, key) so a record never depends on its neighbours.
		sighting := network.SightingFor(r.Peer, cfg.Day, rand.NewPCG(cfg.Seed, r.Key))
		r.Record = network.RouterInfo(cfg.Day, sighting)
		b.pool[r.Peer] = network.IntroducerPeers(cfg.Day, sighting)
		owner := ring.owner(r.Key)
		owned[owner] = append(owned[owner], r)
	}
	for _, name := range api.names {
		b.parts[name] = newPartition(b, name, owned[name])
	}
	return b, nil
}

// selectionSalt decorrelates the cap's selection hash from ring
// positions, so the kept sample stays spread over the whole ring.
const selectionSalt = 0xC2B2AE3D27D4EB4F

// capResources bounds the pool to max resources by keeping the max
// smallest values of an independent per-resource selection hash. Like the
// ring assignment itself, membership is a pure per-resource property
// relative to a rank boundary: one peer joining or leaving the strategy
// pool displaces at most the boundary resource, never reshuffling the
// rest of the sample (TestCapResourcesStability).
func capResources(resources []Resource, max int) []Resource {
	if max <= 0 || len(resources) <= max {
		return resources
	}
	// Hash each resource once, not twice per comparison.
	type ranked struct {
		sel uint64
		r   Resource
	}
	rs := make([]ranked, len(resources))
	for i, r := range resources {
		rs[i] = ranked{mix(r.Key, selectionSalt), r}
	}
	slices.SortFunc(rs, func(a, b ranked) int { return cmp.Compare(a.sel, b.sel) })
	for i := range max {
		resources[i] = rs[i].r
	}
	return resources[:max]
}

// PoolSize returns the number of resources in the backend pool.
func (b *Backend) PoolSize() int { return len(b.pool) }

// InPool reports whether a peer's resource is part of the day's pool.
func (b *Backend) InPool(peer int) bool {
	_, ok := b.pool[peer]
	return ok
}

// Partition returns the named distributor's arc of the ring (nil when the
// distributor is unknown to this backend).
func (b *Backend) Partition(dist string) *Partition { return b.parts[dist] }

// API returns the handout API serving this backend's pool to the
// distributors it was built with.
func (b *Backend) API() *HandoutAPI { return b.api }

// Partition is one distributor's share of a backend pool, in ring-key
// order. Immutable and safe for concurrent use.
type Partition struct {
	backend *Backend
	dist    string
	// ring is the resources twice over, so every arc GetMany serves —
	// wrapping included — is one contiguous window of it; res is its
	// first half.
	ring []Resource
	res  []Resource
}

// newPartition builds dist's partition over res, which is in ring-key
// order and carries its records. It is the only way a Partition is made.
func newPartition(b *Backend, dist string, res []Resource) *Partition {
	n := len(res)
	ring := make([]Resource, 2*n)
	copy(ring, res)
	copy(ring[n:], res)
	return &Partition{backend: b, dist: dist, ring: ring, res: ring[:n:n]}
}

// Len returns the partition size.
func (p *Partition) Len() int { return len(p.res) }

// Resources returns the partition in ring order; callers must not modify
// the returned slice.
func (p *Partition) Resources() []Resource { return p.res }

// When returns the backend's distribution timestamp (bundle creation
// time for the manual-reseed frontend).
func (p *Partition) When() time.Time { return p.backend.When }

// SlotOf returns the partition slot a ring key serves from: the index
// of the first resource clockwise from key, wrapping — GetMany(key, n)
// returns the n resources starting at SlotOf(key). There are therefore
// only Len() distinct handouts per (rotation bucket, size), which is
// what makes the service's pre-built bundle cache possible. Empty
// partitions have no slots (-1).
func (p *Partition) SlotOf(key uint64) int {
	if len(p.res) == 0 {
		return -1
	}
	i := sort.Search(len(p.res), func(i int) bool { return p.res[i].Key >= key })
	return i % len(p.res)
}

// GetMany returns n consecutive resources clockwise from key, wrapping —
// the rdsys handout rule. Requests never receive more than the partition
// holds. The arc is a window onto the partition, not a copy: callers
// must not modify it, and its capacity is its length, so an append
// copies rather than writing into the partition.
func (p *Partition) GetMany(key uint64, n int) []Resource {
	if len(p.res) == 0 {
		return nil
	}
	n = min(n, len(p.res))
	i := p.SlotOf(key)
	return p.ring[i : i+n : i+n]
}
