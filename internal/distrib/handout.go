package distrib

// This file is the unified handout API: the single request → handout
// code path behind every consumer of the distribution pipeline. The
// batch engines (distrib.Sweep's arms-race cells, TrustSweep's rolling
// rows) and the resident service (internal/service, cmd/i2pdistribd)
// all resolve handouts through HandoutAPI.Serve, so the determinism
// harness covering the sweeps covers the live daemon's responses by
// construction: same (backend, distributor, identity, day, attempt) →
// same bridge set, in the batch goldens and over HTTP alike.
//
// The split of responsibilities is deliberate:
//
//   - Distributor.Grant is the frontend's pure request *policy*: which
//     ring position a requester is served from and how many resources
//     the handout carries (or that the requester is served nothing —
//     the trust channel's answer to uninvited identities).
//   - HandoutAPI.Serve is the one *mechanism*, the same for every
//     frontend: resolve the partition and take the granted arc
//     clockwise. No frontend carries its own copy of this walk, and no
//     caller resolves a grant beside it — the daemon's seed endpoint
//     takes its bundle slot from the handout's Key.

import "fmt"

// Request identifies one handout request: the frontend, the requester's
// sticky identity key, the study day, and the re-request attempt
// (non-zero only on the trust channel's rate-limited re-requests;
// stateless frontends ignore it).
type Request struct {
	// Dist is the distributor (frontend) name.
	Dist string
	// ID is the requester's identity key (IdentityKey for string
	// identities such as HTTP clients).
	ID uint64
	// Day is the study day the handout is served on.
	Day int
	// Attempt is the re-request arc offset; zero for first requests.
	Attempt int
}

// Handout is one served handout.
type Handout struct {
	// Distributor and Day echo the request.
	Distributor string
	Day         int
	// Granted reports whether the frontend served this identity at all;
	// ungranted handouts are empty with a zero Key (the trust channel
	// serves uninvited identities nothing).
	Granted bool
	// Key is the ring position the handout was served from; equal keys
	// imply equal handouts (Partition.SlotOf(Key) indexes them).
	Key uint64
	// Resources is the served bridge set, in ring order from Key. It may
	// be a window onto the partition (Partition.GetMany): callers must
	// not modify it.
	Resources []Resource
}

// IdentityKey hashes a string identity (an HTTP client identifier, an
// email account) onto the requester ring — the service-side analog of
// the sweeps' minted uint64 identities.
func IdentityKey(s string) uint64 { return keyOfString(s) }

// HandoutAPI serves deterministic per-identity handouts from one
// backend. It is immutable after NewHandoutAPI and safe for unbounded
// concurrent use — sweep cells and HTTP handlers share one.
type HandoutAPI struct {
	backend *Backend
	dists   map[string]Distributor
	names   []string
}

// NewHandoutAPI binds the distributors to a backend built over the same
// name set. Every distributor must own a partition on the backend.
func NewHandoutAPI(backend *Backend, dists []Distributor) (*HandoutAPI, error) {
	if backend == nil {
		return nil, fmt.Errorf("distrib: handout API needs a backend")
	}
	if len(dists) == 0 {
		return nil, fmt.Errorf("distrib: handout API needs at least one distributor")
	}
	a := &HandoutAPI{
		backend: backend,
		dists:   make(map[string]Distributor, len(dists)),
		names:   make([]string, 0, len(dists)),
	}
	for _, d := range dists {
		if _, dup := a.dists[d.Name()]; dup {
			return nil, fmt.Errorf("distrib: duplicate distributor %q", d.Name())
		}
		if backend.Partition(d.Name()) == nil {
			return nil, fmt.Errorf("distrib: backend has no partition for distributor %q", d.Name())
		}
		a.dists[d.Name()] = d
		a.names = append(a.names, d.Name())
	}
	return a, nil
}

// Distributors returns the frontend names in construction order.
func (a *HandoutAPI) Distributors() []string { return a.names }

// Distributor returns a frontend by name.
func (a *HandoutAPI) Distributor(name string) (Distributor, bool) {
	d, ok := a.dists[name]
	return d, ok
}

// Serve resolves one request through the single handout code path:
// grant → partition arc, and it fails only on an unknown distributor.
// Serve is deterministic in (backend, request) and safe for unbounded
// concurrent use. The handout's Resources are shared with the
// partition; callers must not modify them.
func (a *HandoutAPI) Serve(req Request) (Handout, error) {
	d, ok := a.dists[req.Dist]
	if !ok {
		return Handout{}, fmt.Errorf("distrib: unknown distributor %q", req.Dist)
	}
	h := Handout{Distributor: req.Dist, Day: req.Day}
	g, ok := d.Grant(req.ID, req.Day, req.Attempt)
	if !ok {
		return h, nil
	}
	h.Granted, h.Key = true, g.Key
	h.Resources = a.backend.Partition(req.Dist).GetMany(g.Key, g.Count)
	return h, nil
}
