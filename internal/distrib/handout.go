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
//   - HandoutAPI.Serve is the one *mechanism*: resolve the partition,
//     take the granted arc clockwise, and run any frontend encoding
//     round trip (manual-reseed's su3 bundle). No frontend carries its
//     own copy of this walk anymore.

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
	// Key is the ring position the handout was served from. Equal keys
	// imply equal handouts, so callers may cache a handout until the
	// requester's key changes.
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

// recordRoundTripper is the optional frontend hook for channels whose
// handouts ride a real encoding (manual-reseed's su3 bundles): Serve
// passes the granted arc through it so whatever the codec would reject
// can never be distributed.
type recordRoundTripper interface {
	roundTrip(part *Partition, sel []Resource) ([]Resource, error)
}

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

// Backend returns the backend the API serves from.
func (a *HandoutAPI) Backend() *Backend { return a.backend }

// Distributors returns the frontend names in construction order.
func (a *HandoutAPI) Distributors() []string { return a.names }

// Distributor returns a frontend by name.
func (a *HandoutAPI) Distributor(name string) (Distributor, bool) {
	d, ok := a.dists[name]
	return d, ok
}

// Key returns the ring key Serve would serve the request from, with
// granted=false when the frontend serves this identity nothing. Equal
// (key, granted) imply equal handouts, so callers may cache a handout
// until the requester's key changes — sparing a re-request's work (for
// manual-reseed, a whole bundle round trip) when the rotation bucket
// hasn't moved.
func (a *HandoutAPI) Key(req Request) (key uint64, granted bool, err error) {
	d, ok := a.dists[req.Dist]
	if !ok {
		return 0, false, fmt.Errorf("distrib: unknown distributor %q", req.Dist)
	}
	g, ok := d.Grant(req.ID, req.Day, req.Attempt)
	if !ok {
		return 0, false, nil
	}
	return g.Key, true, nil
}

// Serve resolves one request through the single handout code path:
// grant → partition arc → optional encoding round trip. Serve is
// deterministic in (backend, request) and safe for unbounded concurrent
// use. The handout's Resources are shared with the partition; callers
// must not modify them.
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
	part := a.backend.Partition(req.Dist)
	sel := part.GetMany(g.Key, g.Count)
	if rt, ok := d.(recordRoundTripper); ok {
		var err error
		if sel, err = rt.roundTrip(part, sel); err != nil {
			return Handout{}, err
		}
	}
	h.Resources = sel
	return h, nil
}
