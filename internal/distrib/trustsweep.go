package distrib

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"

	"github.com/i2pstudy/i2pstudy/internal/censor"
	"github.com/i2pstudy/i2pstudy/internal/pool"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// TrustSweep is the Salmon-style arms race: trust-social frontends
// (trust.go) raced against enumerators over a shared bridge backend,
// with the Salmon banning rule closing the loop — insider leak events
// burn bridges, burned bridges make their graph-local holders suspects,
// suspicion propagates up the invitation chain, and repeat offenders
// are banned with their subtree quarantined. Enumeration speed
// therefore depends on graph topology (how deep the insider sits, how
// wide their branch), not only on identity budgets.
//
// Unlike distrib.Sweep — whose cells each own a private horizon and
// carry no cross-cell state, so they fan out cell-level — the trust
// grid's day axis is inherently sequential: day h's trust levels, rate
// counters and bans are day h-1's plus one step. An (enumerator,
// distributor) row is therefore one whole pool.FanOut task that steps
// one trustState through the horizon a day at a time and returns the
// whole horizon as one TrustRow. The determinism contract is unchanged:
// every random draw derives from (SeedBase, row coordinates) and is
// consumed in day order within the row, rows land in row-indexed slots,
// so any Workers value yields byte-identical results — and each day of
// a row equals a fresh trustState stepped from day zero through it
// (TestTrustSweepResumesAcrossRows).

// TrustSweepConfig declares a (trust distributor x enumerator x
// horizon day) grid.
type TrustSweepConfig struct {
	// Strategy selects the backend's candidate pool.
	Strategy censor.BridgeStrategy
	// Distributors are the trust-social frontends sharing the backend
	// ring; names must be unique.
	Distributors []*TrustSocial
	// Enumerators are the censor strategies raced against each
	// frontend. Only the insider can leak — crawler and sybil
	// identities were never invited, so the graph serves them nothing —
	// but keeping them on the axis is the point: the grid shows the
	// zeros. On this sweep the insider's InsiderFrac is the fraction of
	// *graph users* the censor has compromised (drawn once per row, not
	// a per-request coin): compromised users report every handout they
	// receive, so enumeration speed depends on where in the graph they
	// sit and how fast the banning rule quarantines their branches.
	Enumerators []Enumerator
	// Day is the distribution day the shared backend pool is drawn on.
	Day int
	// HorizonDays is how many days past distribution each row simulates
	// (Day+HorizonDays must stay inside the study window).
	HorizonDays int
	// MaxResources caps the backend pool (<= 0: DefaultMaxResources).
	MaxResources int
	// SeedBase drives every random draw; rows derive private seeds from
	// it and their own coordinates, never from grid position.
	SeedBase uint64
	// Workers caps engine concurrency: <= 0 one worker per CPU, 1 the
	// serial reference path. Results are byte-identical either way.
	Workers int
}

// TrustRow is one (enumerator, distributor) row's outcome over the
// horizon.
type TrustRow struct {
	Distributor string
	Enumerator  string
	// Users is the graph population; a day's Bootstrap, Banned and
	// MeanTrust are fractions/means over it.
	Users int
	// Compromised is how many graph users the insider controls on this
	// row (drawn once, before day zero).
	Compromised int
	// Days[h] is the row's state measured at the end of horizon day h
	// (study day Config.Day + h).
	Days []TrustDay
}

// TrustDay is a trust row's state at the end of one horizon day.
type TrustDay struct {
	// Bootstrap is the fraction of users holding at least one usable
	// bridge at the end of the day (banned users keep their last
	// handout but can no longer refresh it).
	Bootstrap float64
	// Survival is the fraction of the frontend's partition still
	// usable.
	Survival float64
	// Enumerated is the fraction of the partition the censor has
	// discovered.
	Enumerated float64
	// Banned is the fraction of users banned by the Salmon rule so far.
	Banned float64
	// MeanTrust is the mean trust level of the surviving (non-banned)
	// users.
	MeanTrust float64
	// Requests is the number of bridge requests users issued this day —
	// rate limits cap it, so it bounds both recovery speed and the
	// insider's interception surface.
	Requests int
	// Leaks is the cumulative count of insider leak events.
	Leaks int
	// CompromisedBanned is how many of the row's Compromised users have
	// been quarantined — once the two are equal the censor's channel
	// into the graph is closed and enumeration plateaus.
	CompromisedBanned int
}

// TrustSweep binds a trust grid to a network with the shared substrate
// built once: the backend pool on the distribution day, holding each
// resource's introducers by peer index and serving handouts through its
// API. The address index is the network's (censor.IndexFor); the rows
// resolve discoveries through it (view.go) and derive no network table
// of their own.
type TrustSweep struct {
	Net *sim.Network
	Cfg TrustSweepConfig

	backend *Backend
}

// NewTrustSweep validates the grid and builds the shared backend.
func NewTrustSweep(network *sim.Network, cfg TrustSweepConfig) (*TrustSweep, error) {
	if err := validateTrustDistributors(cfg.Distributors); err != nil {
		return nil, err
	}
	if len(cfg.Enumerators) == 0 {
		return nil, fmt.Errorf("distrib: trust sweep needs at least one enumerator")
	}
	if cfg.HorizonDays < 0 {
		return nil, fmt.Errorf("distrib: negative horizon %d", cfg.HorizonDays)
	}
	if cfg.Day < 0 || cfg.Day+cfg.HorizonDays >= network.Days() {
		return nil, fmt.Errorf("distrib: horizon (day %d + %d) exceeds network days (%d)",
			cfg.Day, cfg.HorizonDays, network.Days())
	}
	if cfg.MaxResources <= 0 {
		cfg.MaxResources = DefaultMaxResources
	}
	dists := make([]Distributor, len(cfg.Distributors))
	for i, d := range cfg.Distributors {
		dists[i] = d
	}
	backend, err := NewBackend(network, BackendConfig{
		Strategy:     cfg.Strategy,
		Day:          cfg.Day,
		MaxResources: cfg.MaxResources,
		Seed:         cfg.SeedBase,
	}, dists)
	if err != nil {
		return nil, err
	}
	return &TrustSweep{Net: network, Cfg: cfg, backend: backend}, nil
}

// rowSeed derives a row's private seed from its coordinates — never
// from grid position, so reshaping the horizon cannot change a row.
func (s *TrustSweep) rowSeed(d *TrustSocial, e Enumerator) uint64 {
	return mix(s.Cfg.SeedBase,
		keyOfString(d.Name()),
		uint64(e.Kind)+1,
		math.Float64bits(e.Budget),
		math.Float64bits(e.InsiderFrac))
}

// Run evaluates every row and returns len(Enumerators) x
// len(Distributors) rows, enumerators outer and distributors inner (the
// order distrib.Sweep lays out one day's cells), each holding
// HorizonDays+1 days. Each row is one pool.FanOut task that steps one
// trustState through the horizon in ascending day order. Any Workers
// value yields byte-identical results; the first error (or ctx
// cancellation) stops the remaining rows, and a row in flight stops at
// its next day when ctx is cancelled.
func (s *TrustSweep) Run(ctx context.Context) ([]TrustRow, error) {
	nd := len(s.Cfg.Distributors)
	rows := make([]TrustRow, len(s.Cfg.Enumerators)*nd)
	err := pool.FanOut(ctx, len(rows), s.Cfg.Workers, func(i int) error {
		d, e := s.Cfg.Distributors[i%nd], s.Cfg.Enumerators[i/nd]
		st := s.newTrustState(d, e)
		row := TrustRow{
			Distributor: d.Name(),
			Enumerator:  e.Name(),
			Users:       d.Graph().Len(),
			Compromised: st.numCompromised,
			Days:        make([]TrustDay, s.Cfg.HorizonDays+1),
		}
		for h := range row.Days {
			if err := ctx.Err(); err != nil {
				return err
			}
			var err error
			if row.Days[h], err = st.step(h); err != nil {
				return err
			}
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// trustState is one row's mutable arms-race state: the per-user trust
// dynamics plus the censor's discoveries. Each row owns one; nothing in
// it is shared.
type trustState struct {
	s    *TrustSweep
	dist *TrustSocial

	// Per-user dynamic state, indexed by graph user index.
	level       []int
	strikes     []float64 // direct shared-bridge strikes; bans count these
	susp        []float64 // propagated suspicion from descendants; demotes, never bans
	banned      []bool
	compromised []bool // insider-controlled users (Insider rows only)
	clean       []int  // consecutive clean days, resets on suspicion
	attempt     []int  // re-request arc offset (see TrustSocial.Grant)
	handout     [][]Resource

	// Censor state: blacklist, discoveries and the crawler and sybil
	// enumeration, shared with the arms-race cells (view.go).
	cv *censorView

	bannedCount      int
	numCompromised   int
	compromisedAlive int // compromised and not yet banned
	leaks            int

	// Per-day scratch, reused across steps instead of reallocated every
	// day (the sweep engines' remaining per-cell allocation pressure).
	// Safe because nothing ranges over the maps — they are written then
	// looked up by key, so reuse cannot introduce iteration-order
	// dependence — and every user clears before filling.
	burnedBefore map[int]bool
	newlyBurned  map[int]bool
	struck       []bool
	burns        [][]Resource // the day's intercepted handouts
}

// newTrustState initializes a row at the eve of the distribution day.
func (s *TrustSweep) newTrustState(d *TrustSocial, e Enumerator) *trustState {
	g := d.Graph()
	n := g.Len()
	seed := s.rowSeed(d, e)
	rng := rand.New(rand.NewPCG(seed, seed^0x5A17A0A17A0A5A17))
	st := &trustState{
		s:           s,
		dist:        d,
		level:       make([]int, n),
		strikes:     make([]float64, n),
		susp:        make([]float64, n),
		banned:      make([]bool, n),
		compromised: make([]bool, n),
		clean:       make([]int, n),
		attempt:     make([]int, n),
		handout:     make([][]Resource, n),
		cv:          newCensorView(s.Net, s.backend, d, e, seed, rng),

		burnedBefore: make(map[int]bool),
		newlyBurned:  make(map[int]bool),
		struck:       make([]bool, n),
	}
	for i, u := range g.Users() {
		st.level[i] = u.Level
	}
	if e.Kind == Insider {
		// The insider's foothold: each user is compromised with
		// probability InsiderFrac, drawn once — where the draws land in
		// the graph decides how much one quarantine wave costs the
		// censor.
		for i := range st.compromised {
			if rng.Float64() < e.InsiderFrac {
				st.compromised[i] = true
				st.numCompromised++
			}
		}
		st.compromisedAlive = st.numCompromised
	}
	return st
}

// ban quarantines a user and their whole invitation subtree — the
// Salmon rule's blast radius. Already-banned descendants are skipped.
func (st *trustState) ban(u int) {
	if st.banned[u] {
		return
	}
	st.banned[u] = true
	st.bannedCount++
	if st.compromised[u] {
		st.compromisedAlive--
	}
	for _, c := range st.dist.Graph().Users()[u].Children {
		st.ban(c)
	}
}

// step simulates horizon day h, the day after the last one stepped, in
// a fixed phase order (promotion, requests + interception,
// identity-based enumeration, banning, clean accounting, metrics), and
// returns the day's outcome. Every random draw comes from the row's rng
// in this order, so stepping a fresh state through days 0…h is the
// row's day h.
func (st *trustState) step(h int) (TrustDay, error) {
	g := st.dist.Graph()
	users := g.Users()
	day := st.s.Cfg.Day + h
	cfg := st.dist.Config()

	// 1. Promotion: PromoteDays consecutive clean days earn one level.
	if h > 0 {
		for u := range users {
			if !st.banned[u] && st.clean[u] >= cfg.PromoteDays && st.level[u] < trustMaxLevel {
				st.level[u]++
				st.clean[u] = 0
			}
		}
	}

	// 2. Requests. A user requests when they hold no usable bridge (day
	// zero: everyone bootstraps), re-requesting up to their trust
	// level's rate limit; each failed attempt rotates them to a fresh
	// arc. A compromised user reports every handout they are served —
	// the leak events that feed the censor and, through burned bridges,
	// the banning rule below — so the rate limit also caps how fast the
	// insider can milk the ring.
	requests := 0
	newBurns := st.burns[:0]
	for u := range users {
		if st.banned[u] {
			continue
		}
		if h > 0 && st.cv.anyUsable(st.handout[u], day) {
			continue
		}
		limit := g.RequestLimit(st.level[u])
		for r := 0; r < limit; r++ {
			served, err := st.s.backend.API().Serve(Request{
				Dist: st.dist.Name(), ID: users[u].ID, Day: day, Attempt: st.attempt[u],
			})
			if err != nil {
				return TrustDay{}, err
			}
			hr := served.Resources
			st.handout[u] = hr
			requests++
			if st.compromised[u] {
				st.leaks++
				newBurns = append(newBurns, hr)
			}
			if st.cv.anyUsable(hr, day) {
				break
			}
			st.attempt[u]++
		}
	}
	st.burns = newBurns // keep the grown capacity for the next day
	// Leaks burn after the request phase: the censor deploys the day's
	// intercepts in one batch, so a leak never blocks the very request
	// wave it was harvested from.
	burnedBefore := st.burnedBefore
	clear(burnedBefore)
	for _, hr := range newBurns {
		for _, r := range hr {
			if st.cv.discovered[r.Peer] {
				burnedBefore[r.Peer] = true
			}
		}
	}
	for _, hr := range newBurns {
		st.cv.discover(hr, day)
	}

	// 3. Identity-based enumeration. Crawler and sybil identities were
	// never invited, so the graph serves them nothing — the zeros are
	// the channel's defense, and the code path proves it rather than
	// assuming it.
	if err := st.cv.enumerate(day); err != nil {
		return TrustDay{}, err
	}

	// 4. Salmon banning. Holders of a bridge that burned today are
	// shared-bridge suspects: one direct strike and one trust level
	// down each. Suspicion propagates up the invitation chain at
	// trustPropagateFrac per hop, but propagated suspicion only demotes
	// trust (each accumulated unit costs the ancestor a level) — it
	// never bans, so a noisy branch cannot cascade the whole tree away
	// through its seed. Repeat offenders — direct strikes crossing
	// BanThreshold — are banned and their invitation subtree
	// quarantined with them.
	newlyBurned := st.newlyBurned
	clear(newlyBurned)
	for _, hr := range newBurns {
		for _, r := range hr {
			if !burnedBefore[r.Peer] {
				newlyBurned[r.Peer] = true
			}
		}
	}
	if len(newlyBurned) > 0 {
		struck := st.struck
		clear(struck)
		for u := range users {
			if st.banned[u] || st.handout[u] == nil {
				continue
			}
			for _, r := range st.handout[u] {
				if newlyBurned[r.Peer] {
					struck[u] = true
					break
				}
			}
		}
		for u := range users {
			if !struck[u] {
				continue
			}
			st.strikes[u]++
			st.clean[u] = 0
			if st.level[u] > 0 {
				st.level[u]--
			}
			add := trustPropagateFrac
			for v := users[u].Parent; v >= 0; v = users[v].Parent {
				st.susp[v] += add
				st.clean[v] = 0
				for st.susp[v] >= 1 {
					st.susp[v]--
					if st.level[v] > 0 {
						st.level[v]--
					}
				}
				add *= trustPropagateFrac
			}
		}
		for u := range users {
			if !st.banned[u] && st.strikes[u] >= cfg.BanThreshold {
				st.ban(u)
			}
		}
	}

	// 5. Clean-day accounting for the survivors (struck users were
	// reset above, so their streak restarts at one).
	for u := range users {
		if !st.banned[u] {
			st.clean[u]++
		}
	}

	// 6. The day's outcome.
	okUsers := 0
	trustSum, trustN := 0, 0
	for u := range users {
		if st.handout[u] != nil && st.cv.anyUsable(st.handout[u], day) {
			okUsers++
		}
		if !st.banned[u] {
			trustSum += st.level[u]
			trustN++
		}
	}
	out := TrustDay{
		Bootstrap:         frac(okUsers, len(users)),
		Survival:          st.cv.survival(day),
		Enumerated:        st.cv.enumerated(),
		Banned:            frac(st.bannedCount, len(users)),
		Requests:          requests,
		Leaks:             st.leaks,
		CompromisedBanned: st.numCompromised - st.compromisedAlive,
	}
	if trustN > 0 {
		out.MeanTrust = float64(trustSum) / float64(trustN)
	}
	return out, nil
}
