package distrib

// Grant is a frontend's decision for one request: the ring position the
// requester is served from and how many resources the handout carries.
// The mechanism that turns a grant into bridges (the clockwise arc
// walk) lives in HandoutAPI.Serve — frontends only decide policy.
type Grant struct {
	// Key is the ring position to serve from.
	Key uint64
	// Count is the handout size.
	Count int
}

// Distributor is one rdsys-style distribution frontend: a request model
// (which ring arc a requester is granted, and how the mapping rotates)
// and a leak profile (how expensive it is for a censor to mint a
// requester identity on this channel). Implementations must be
// stateless: Grant must be pure in (id, day, attempt) and safe for
// unbounded concurrent use — sweep cells and the resident service share
// distributors. Handouts are resolved exclusively through
// HandoutAPI.Serve, the one handout code path the determinism harness
// covers.
type Distributor interface {
	// Name labels the frontend and places it on the backend hashring.
	Name() string
	// Grant resolves a request to a handout grant. ok=false means the
	// frontend serves this identity nothing (the trust channel's answer
	// to identities its graph never minted). Grants are sticky per
	// requester and rotate slowly (the anti-enumeration behaviour of
	// rdsys and the reseed servers). The attempt offset rotates
	// rate-limited re-requests to a fresh arc on frontends that support
	// it; stateless web frontends ignore it — however often a requester
	// retries, time alone moves their arc.
	Grant(id uint64, day, attempt int) (g Grant, ok bool)
	// IdentityCost is the censor's relative cost to mint one fresh
	// requester identity: 1.0 = one rotating IP address. Enumerator
	// budgets divide by it, so high-cost channels leak slowly.
	IdentityCost() float64
}

// ringDist implements the shared rdsys request model: a requester's
// identity hashes to a ring position and is granted the next handout
// resources clockwise; every rotationDays the position shifts, so
// long-lived users migrate to fresh bridges and crawlers cannot milk one
// identity forever.
type ringDist struct {
	name         string
	handout      int
	rotationDays int
	identityCost float64
}

func (d *ringDist) Name() string          { return d.name }
func (d *ringDist) IdentityCost() float64 { return d.identityCost }

// Grant implements Distributor: the deterministic ring position for
// (requester, day). The attempt offset is ignored — web-style frontends
// rotate by time, never by retry.
func (d *ringDist) Grant(id uint64, day, _ int) (Grant, bool) {
	bucket := uint64(0)
	if d.rotationDays > 0 {
		bucket = uint64(day / d.rotationDays)
	}
	return Grant{Key: mix(keyOfString(d.name), id, bucket), Count: d.handout}, true
}

// NewHTTPS returns the HTTPS frontend: cheap to query (an IP address is
// one identity), weekly rotation — the BridgeDB/rdsys web distributor.
func NewHTTPS() Distributor {
	return &ringDist{name: "https", handout: 3, rotationDays: 7, identityCost: 1}
}

// NewEmail returns the email frontend: requesters are mail accounts at
// providers with priced signup friction.
func NewEmail() Distributor {
	return &ringDist{name: "email", handout: 3, rotationDays: 7, identityCost: 8}
}

// NewSocial returns the social/moat frontend: identities are vouched
// accounts in a trust graph, expensive to fabricate and slow to rotate.
func NewSocial() Distributor {
	return &ringDist{name: "social", handout: 2, rotationDays: 14, identityCost: 40}
}

// NewManualReseed returns the out-of-band frontend of Section 6.1: a
// trusted contact exports an i2pseeds.su3 bundle of the granted arc and
// hands it over outside the network. Grants are permanently sticky and
// minting an identity is expensive. The daemon serves the signed bundles
// (internal/service's seed endpoint); the handout itself is the arc.
func NewManualReseed() Distributor {
	return &ringDist{name: "manual-reseed", handout: 5, rotationDays: 0, identityCost: 500}
}

// DefaultDistributors returns the four frontends of the pipeline in
// canonical order.
func DefaultDistributors() []Distributor {
	return []Distributor{NewHTTPS(), NewEmail(), NewSocial(), NewManualReseed()}
}
