package distrib

import (
	"fmt"
	"math/rand/v2"
)

// This file is the social half of the Salmon-style trust distributor
// (Douglas & Caesar, PETS 2016, adapted to the I2P reseed/bridge
// setting): a deterministic user population arranged in a seeded
// invitation graph. Every user carries a trust level, a per-level
// per-day bridge-request rate limit, and an invitation budget; bridges
// are handed out along graph edges (an invitation subtree shares a
// handout group), so when an insider burns a bridge the set of suspects
// is graph-local and suspicion can propagate up the invitation chain.
// The graph itself is immutable after NewTrustGraph — all per-run trust
// dynamics (promotions, strikes, bans, rate-limit counters) live in the
// trust sweep's row state (trustsweep.go), exactly like the blacklist
// state of the censor sweep lives in its rows.

// TrustGraphConfig parameterizes a trust graph build.
type TrustGraphConfig struct {
	// Users is the target population (<= 0: 200). Growth is
	// invitation-bound: when every eligible inviter has spent their
	// budget the graph saturates below the target, which is the
	// enumeration resistance the model exists to show — population
	// cannot be minted, only invited.
	Users int
	// Seed drives the graph draw: who invites whom is deterministic in
	// (Users, Seed).
	Seed uint64
}

// The invitation graph's shape.
const (
	// trustSeeds is the number of founding users. Seeds start at
	// trustMaxLevel with no inviter.
	trustSeeds = 4
	// trustMaxLevel is the highest trust level. Invitees join one level
	// below their inviter, floored at zero.
	trustMaxLevel = 5
	// trustInviteLevel is the minimum trust level required to invite, so
	// trees have bounded depth: levels decrease with depth and users
	// below it cannot extend their chain.
	trustInviteLevel = 2
	// trustInviteBudget is how many invitations each user can ever
	// issue.
	trustInviteBudget = 3
	// trustRateBase is the bridge-request rate limit at trust level
	// zero, in requests per day; each level adds one request per day.
	trustRateBase = 1
)

// TrustUser is one node of the invitation graph.
type TrustUser struct {
	// Index is the user's position in TrustGraph.Users().
	Index int
	// ID is the user's sticky requester identity on the distribution
	// ring (what reaches Distributor.Handout).
	ID uint64
	// Parent is the inviter's index, -1 for seed users.
	Parent int
	// Children are the users this user invited, in invitation order.
	Children []int
	// Root is the seed ancestor's index (self for seeds).
	Root int
	// Group is the handout-group anchor: the depth-1 ancestor's index
	// (self for seeds and depth-1 users). Users sharing a Group draw
	// from the same arc of the bridge ring — bridges flow along graph
	// edges, so a burned bridge implicates an invitation branch, not a
	// random sample of the population.
	Group int
	// Depth is the invitation-chain length from the seed (0 for seeds).
	Depth int
	// Level is the user's *initial* trust level; the trust sweep's row
	// state evolves its own copy.
	Level int
}

// TrustGraph is a frozen invitation graph. Immutable after NewTrustGraph
// and safe for unbounded concurrent use — sweep rows share one graph and
// copy only the mutable trust state.
type TrustGraph struct {
	users []TrustUser
	byID  map[uint64]int
}

// NewTrustGraph grows the invitation graph deterministically: seeds
// first, then one user at a time, each invited by a uniformly drawn
// eligible user (level >= trustInviteLevel, budget left). Growth stops
// early when no eligible inviter remains.
func NewTrustGraph(cfg TrustGraphConfig) *TrustGraph {
	if cfg.Users <= 0 {
		cfg.Users = 200
	}
	g := &TrustGraph{}
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x7472757374)) // "trust"
	budget := make([]int, 0, cfg.Users)
	// eligible lists users that can still invite; the draw swaps spent
	// inviters out, so each invitation is O(1).
	var eligible []int
	add := func(parent int) {
		u := TrustUser{Index: len(g.users), Parent: parent, ID: mix(cfg.Seed, 0x696E76697465, uint64(len(g.users)))} // "invite"
		if parent < 0 {
			u.Root, u.Group, u.Level = u.Index, u.Index, trustMaxLevel
		} else {
			p := g.users[parent]
			u.Root, u.Depth = p.Root, p.Depth+1
			u.Group = p.Group
			if u.Depth == 1 {
				u.Group = u.Index
			}
			u.Level = p.Level - 1
			if u.Level < 0 {
				u.Level = 0
			}
			g.users[parent].Children = append(g.users[parent].Children, u.Index)
		}
		g.users = append(g.users, u)
		budget = append(budget, trustInviteBudget)
		if u.Level >= trustInviteLevel {
			eligible = append(eligible, u.Index)
		}
	}
	for range min(trustSeeds, cfg.Users) {
		add(-1)
	}
	for len(g.users) < cfg.Users && len(eligible) > 0 {
		i := rng.IntN(len(eligible))
		inviter := eligible[i]
		add(inviter)
		if budget[inviter]--; budget[inviter] == 0 {
			eligible[i] = eligible[len(eligible)-1]
			eligible = eligible[:len(eligible)-1]
		}
	}
	g.byID = make(map[uint64]int, len(g.users))
	for _, u := range g.users {
		g.byID[u.ID] = u.Index
	}
	return g
}

// Len returns the admitted population — at most the config's Users,
// less when invitations saturated first.
func (g *TrustGraph) Len() int { return len(g.users) }

// Users returns the population in admission order; callers must not
// modify the returned slice.
func (g *TrustGraph) Users() []TrustUser { return g.users }

// UserByID resolves a requester identity to a graph user. Identities
// not minted by the graph resolve to nothing — the property that makes
// the trust-social channel crawler-proof.
func (g *TrustGraph) UserByID(id uint64) (TrustUser, bool) {
	i, ok := g.byID[id]
	if !ok {
		return TrustUser{}, false
	}
	return g.users[i], true
}

// RequestLimit returns the per-day bridge-request rate limit at a trust
// level: trustRateBase at level zero, one more request per level. Negative
// levels (not produced by the graph) are clamped to the base rate.
func (g *TrustGraph) RequestLimit(level int) int {
	if level < 0 {
		level = 0
	}
	return trustRateBase + level
}

// TrustSocialConfig parameterizes the trust-social frontend: the graph
// behind it and the Salmon banning rule the trust sweep applies.
type TrustSocialConfig struct {
	// Name labels the frontend on the backend ring (defaults to
	// "trust-social"; override when one backend carries several trust
	// frontends).
	Name string
	// Graph parameterizes the invitation graph (see TrustGraphConfig).
	Graph TrustGraphConfig
	// PromoteDays is how many consecutive clean days earn one trust
	// level (<= 0: 7).
	PromoteDays int
	// BanThreshold is the strike count at which a user is banned and
	// their invitation subtree quarantined (<= 0: 2).
	BanThreshold float64
}

// The trust-social frontend's fixed terms.
const (
	// trustHandout is the bridges-per-request count.
	trustHandout = 2
	// trustRotationDays is the handout rotation period: social channels
	// rotate slowly.
	trustRotationDays = 21
	// trustIdentityCost prices one fake identity on this channel: an
	// identity is a real invitation, which is what the insider pays for.
	trustIdentityCost = 150
	// trustPropagateFrac is the fraction of a strike that propagates to
	// the suspect's inviter, squared for the grandparent and so on.
	trustPropagateFrac = 0.5
)

func (cfg TrustSocialConfig) withDefaults() TrustSocialConfig {
	if cfg.Name == "" {
		cfg.Name = "trust-social"
	}
	if cfg.PromoteDays <= 0 {
		cfg.PromoteDays = 7
	}
	if cfg.BanThreshold <= 0 {
		cfg.BanThreshold = 2
	}
	return cfg
}

// TrustSocial is the Salmon-style social frontend. As a plain
// Distributor it is stateless like every other frontend — handouts are
// deterministic in (partition, requester, day), unknown requesters get
// nothing — so it can ride the regular distrib.Sweep; the trust
// dynamics (rate limits, strikes, bans) only engage under TrustSweep,
// which owns the mutable per-row state.
type TrustSocial struct {
	cfg   TrustSocialConfig
	graph *TrustGraph
}

// NewTrustSocial builds the graph and returns the frontend.
func NewTrustSocial(cfg TrustSocialConfig) *TrustSocial {
	cfg = cfg.withDefaults()
	return &TrustSocial{cfg: cfg, graph: NewTrustGraph(cfg.Graph)}
}

// Name implements Distributor.
func (d *TrustSocial) Name() string { return d.cfg.Name }

// IdentityCost implements Distributor.
func (d *TrustSocial) IdentityCost() float64 { return trustIdentityCost }

// Graph returns the frozen invitation graph.
func (d *TrustSocial) Graph() *TrustGraph { return d.graph }

// Config returns the (defaulted) frontend config.
func (d *TrustSocial) Config() TrustSocialConfig { return d.cfg }

// groupKey is the ring position of a user's handout group for a
// rotation bucket and per-user re-request attempt: the group anchor —
// not the user — selects the arc, so an invitation branch shares
// bridges; attempts rotate a burned user to a fresh position without
// moving their branch-mates.
func (d *TrustSocial) groupKey(u TrustUser, day int, attempt int) uint64 {
	return mix(keyOfString(d.cfg.Name), uint64(u.Group)+1, uint64(day/trustRotationDays), uint64(attempt))
}

// Grant implements Distributor: graph users are granted their group's
// arc; identities the graph never minted — crawler and sybil
// requesters — are granted nothing. That is the channel's whole
// defense: requester identities cannot be fabricated, only invited.
// The attempt offset is the trust sweep's rate-limited re-request
// path: a user whose bridges burned rotates to a fresh arc without
// moving their branch-mates.
func (d *TrustSocial) Grant(id uint64, day, attempt int) (Grant, bool) {
	u, ok := d.graph.UserByID(id)
	if !ok {
		return Grant{}, false
	}
	return Grant{Key: d.groupKey(u, day, attempt), Count: trustHandout}, true
}

// validateTrustDistributors checks a trust sweep's frontend list:
// non-empty, unique names, non-empty graphs.
func validateTrustDistributors(dists []*TrustSocial) error {
	if len(dists) == 0 {
		return fmt.Errorf("distrib: trust sweep needs at least one trust-social distributor")
	}
	seen := make(map[string]bool, len(dists))
	for _, d := range dists {
		if d == nil {
			return fmt.Errorf("distrib: nil trust-social distributor")
		}
		if seen[d.Name()] {
			return fmt.Errorf("distrib: duplicate trust-social distributor %q", d.Name())
		}
		seen[d.Name()] = true
		if d.graph.Len() == 0 {
			return fmt.Errorf("distrib: trust-social distributor %q has an empty graph", d.Name())
		}
	}
	return nil
}
