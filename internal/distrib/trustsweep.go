package distrib

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"

	"github.com/i2pstudy/i2pstudy/internal/censor"
	"github.com/i2pstudy/i2pstudy/internal/measure"
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
// counters and bans are day h-1's plus one step. A (distributor,
// enumerator) row is therefore one whole measure.FanOut task that
// slides one trustState forward a day at a time through the row's
// cells. The determinism contract is unchanged: every random draw
// derives from (SeedBase, row coordinates) and is consumed in day order
// within the row, results land in cell-indexed slots, so any Workers
// value yields byte-identical results — and sliding is exactly
// resumable, so every cell equals the from-scratch replay Reference
// computes (TestTrustSweepResumesAcrossRows).

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
	// HorizonDays is how many days past distribution each row slides
	// (Day+HorizonDays must stay inside the study window).
	HorizonDays int
	// IntroducersPerBridge mirrors SweepConfig (<= 0: 3).
	IntroducersPerBridge int
	// MaxResources caps the backend pool (<= 0: 200).
	MaxResources int
	// SeedBase drives every random draw; rows derive private seeds from
	// it and their own coordinates, never from grid position.
	SeedBase uint64
	// Workers caps engine concurrency: <= 0 one worker per CPU, 1 the
	// serial reference path. Results are byte-identical either way.
	Workers int
}

// TrustCell is one point of the trust grid.
type TrustCell struct {
	Dist *TrustSocial
	Enum Enumerator
	// Day is the horizon day: 0 is the distribution day, the cell
	// evaluates study day Config.Day + Day.
	Day int
}

// TrustCellResult is one cell's outcome — the row's state measured at
// the end of the cell's horizon day.
type TrustCellResult struct {
	Distributor string
	Enumerator  string
	// Day is the horizon day.
	Day int
	// Users is the graph population; Bootstrap, Banned and MeanTrust
	// are fractions/means over it.
	Users int
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
	// Compromised is how many graph users the insider controls on this
	// row; CompromisedBanned of them have been quarantined — once the
	// two are equal the censor's channel into the graph is closed and
	// enumeration plateaus.
	Compromised, CompromisedBanned int
}

// TrustLeak is one insider interception: the leak event that feeds
// trust updates — the leaked resources are blacklisted, and holders of
// a newly burned bridge become suspects under the banning rule.
type TrustLeak struct {
	// Day is the horizon day of the interception.
	Day int
	// User is the graph index of the user whose handout was
	// intercepted.
	User int
	// Resources is the intercepted handout.
	Resources []Resource
}

// TrustSweep binds a trust grid to a network with the shared substrate
// built once: the backend pool on the distribution day, holding each
// resource's introducers by peer index. The address index is the
// network's (censor.IndexFor); the rows resolve discoveries through it
// (view.go) and derive no network table of their own.
type TrustSweep struct {
	Net *sim.Network
	Cfg TrustSweepConfig

	backend *Backend
	api     *HandoutAPI
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
	if cfg.IntroducersPerBridge <= 0 {
		cfg.IntroducersPerBridge = 3
	}
	if cfg.MaxResources <= 0 {
		cfg.MaxResources = 200
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
	api, err := NewHandoutAPI(backend, dists)
	if err != nil {
		return nil, err
	}
	return &TrustSweep{
		Net:     network,
		Cfg:     cfg,
		backend: backend,
		api:     api,
	}, nil
}

// Cells enumerates the grid in deterministic order: horizon days
// outermost, then enumerators, then distributors — the same layout as
// distrib.Sweep, which makes cell i's row simply i % (enums x dists).
func (s *TrustSweep) Cells() []TrustCell {
	out := make([]TrustCell, 0, (s.Cfg.HorizonDays+1)*len(s.Cfg.Enumerators)*len(s.Cfg.Distributors))
	for h := 0; h <= s.Cfg.HorizonDays; h++ {
		for _, e := range s.Cfg.Enumerators {
			for _, d := range s.Cfg.Distributors {
				out = append(out, TrustCell{Dist: d, Enum: e, Day: h})
			}
		}
	}
	return out
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

// Run evaluates every cell and returns results in Cells() order. Each
// (distributor, enumerator) row is one measure.FanOut task that slides
// one trustState through the row's days in ascending order. Any Workers
// value yields byte-identical results; the first error (or ctx
// cancellation) stops the remaining rows, and a row in flight stops at
// its next day when ctx is cancelled.
func (s *TrustSweep) Run(ctx context.Context) ([]TrustCellResult, error) {
	cells := s.Cells()
	rows := len(s.Cfg.Enumerators) * len(s.Cfg.Distributors)
	results := make([]TrustCellResult, len(cells))
	// Cells lay days outermost, so row r's cells are r, r+rows, … in
	// ascending day order, and cell r is the row's first.
	err := measure.FanOut(ctx, rows, s.Cfg.Workers, func(r int) error {
		st := s.newTrustState(cells[r].Dist, cells[r].Enum)
		for i := r; i < len(cells); i += rows {
			if err := ctx.Err(); err != nil {
				return err
			}
			st.advanceTo(cells[i].Day)
			results[i] = st.result(cells[i])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// Reference replays one cell from scratch: a fresh trustState advanced
// serially from day zero through the cell's horizon day. It is the
// golden reference the rolling rows are tested byte-identical against —
// sliding a row is exactly resuming this replay.
func (s *TrustSweep) Reference(c TrustCell) TrustCellResult {
	st := s.newTrustState(c.Dist, c.Enum)
	st.advanceTo(c.Day)
	return st.result(c)
}

// trustState is one row's mutable arms-race state: the per-user trust
// dynamics plus the censor's discoveries. Each row owns one; nothing in
// it is shared.
type trustState struct {
	s    *TrustSweep
	dist *TrustSocial
	enum Enumerator
	part *Partition
	seed uint64
	rng  *rand.Rand

	// Per-user dynamic state, indexed by graph user index.
	level       []int
	strikes     []float64 // direct shared-bridge strikes; bans count these
	susp        []float64 // propagated suspicion from descendants; demotes, never bans
	banned      []bool
	compromised []bool // insider-controlled users (Insider rows only)
	clean       []int  // consecutive clean days, resets on suspicion
	attempt     []int  // re-request arc offset (see TrustSocial.Grant)
	handout     [][]Resource

	// Censor state: blacklist + discoveries with the discover/usable
	// rules shared with the arms-race cells (view.go).
	cv         *censorView
	crawlCarry float64
	sybils     []uint64 // persistent sybil identities (never invited)

	bannedCount      int
	numCompromised   int
	compromisedAlive int // compromised and not yet banned
	leaks            int
	day              int // last simulated horizon day, -1 before day zero
	last             TrustCellResult

	// Per-day scratch, reused across steps instead of reallocated every
	// day (the sweep engines' remaining per-cell allocation pressure).
	// Safe because nothing ranges over the maps — they are written then
	// looked up by key, so reuse cannot introduce iteration-order
	// dependence — and every user clears before filling.
	burnedBefore map[int]bool
	newlyBurned  map[int]bool
	struck       []bool
	burns        []TrustLeak
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
		enum:        e,
		part:        s.backend.Partition(d.Name()),
		seed:        seed,
		rng:         rng,
		level:       make([]int, n),
		strikes:     make([]float64, n),
		susp:        make([]float64, n),
		banned:      make([]bool, n),
		compromised: make([]bool, n),
		clean:       make([]int, n),
		attempt:     make([]int, n),
		handout:     make([][]Resource, n),
		cv:          newCensorView(s.Net, s.backend, s.Cfg.IntroducersPerBridge, rng),
		day:         -1,

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
			if st.rng.Float64() < e.InsiderFrac {
				st.compromised[i] = true
				st.numCompromised++
			}
		}
		st.compromisedAlive = st.numCompromised
	}
	if e.Kind == Sybil {
		st.sybils = make([]uint64, e.sybilCount(d.IdentityCost()))
		for i := range st.sybils {
			st.sybils[i] = mix(seed, 0x737962696C, uint64(i)) // "sybil"
		}
	}
	return st
}

// advanceTo slides the row through every horizon day up to and
// including `to`. Days are simulated one at a time — sliding from day
// h-1 to h is exactly what a from-scratch replay of day h does after
// day h-1, which is why resumed rows match Reference bit for bit. A
// revisited day (duplicate grid entries) is a no-op.
func (st *trustState) advanceTo(to int) {
	for d := st.day + 1; d <= to; d++ {
		st.step(d)
	}
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

// step simulates one horizon day, in a fixed phase order (promotion,
// requests + interception, identity-based enumeration, banning, clean
// accounting, metrics). Every random draw comes from the row's rng in
// this order, which is what makes sliding resumable.
func (st *trustState) step(h int) {
	g := st.dist.Graph()
	users := g.Users()
	day := st.s.Cfg.Day + h
	cfg := st.dist.Config()

	// 1. Promotion: PromoteDays consecutive clean days earn one level.
	if h > 0 {
		for u := range users {
			if !st.banned[u] && st.clean[u] >= cfg.PromoteDays && st.level[u] < g.Config().MaxLevel {
				st.level[u]++
				st.clean[u] = 0
			}
		}
	}

	// 2. Requests. A user requests when they hold no usable bridge (day
	// zero: everyone bootstraps), re-requesting up to their trust
	// level's rate limit; each failed attempt rotates them to a fresh
	// arc. A compromised user reports every handout they are served —
	// the TrustLeak events that feed the censor and, through burned
	// bridges, the banning rule below — so the rate limit also caps how
	// fast the insider can milk the ring.
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
			// Serve fails only on an unknown distributor, and the row's
			// own is known.
			served, _ := st.s.api.Serve(Request{
				Dist: st.dist.Name(), ID: users[u].ID, Day: day, Attempt: st.attempt[u],
			})
			hr := served.Resources
			st.handout[u] = hr
			requests++
			if st.compromised[u] {
				st.leaks++
				newBurns = append(newBurns, TrustLeak{Day: h, User: u, Resources: hr})
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
	for _, l := range newBurns {
		for _, r := range l.Resources {
			if st.cv.discovered[r.Peer] {
				burnedBefore[r.Peer] = true
			}
		}
	}
	for _, l := range newBurns {
		st.cv.discover(l.Resources, day)
	}

	// 3. Identity-based enumeration. Crawler and sybil identities were
	// never invited, so the graph serves them nothing — the zeros are
	// the channel's defense, and the code path proves it rather than
	// assuming it.
	switch st.enum.Kind {
	case Crawler:
		k := st.enum.requestsOn(st.dist.IdentityCost(), &st.crawlCarry)
		for i := 0; i < k; i++ {
			id := mix(st.seed, 0x637261776C, uint64(day), uint64(i)) // "crawl"
			if served, _ := st.s.api.Serve(Request{Dist: st.dist.Name(), ID: id, Day: day}); len(served.Resources) > 0 {
				st.cv.discover(served.Resources, day)
			}
		}
	case Sybil:
		for _, id := range st.sybils {
			if served, _ := st.s.api.Serve(Request{Dist: st.dist.Name(), ID: id, Day: day}); len(served.Resources) > 0 {
				st.cv.discover(served.Resources, day)
			}
		}
	}

	// 4. Salmon banning. Holders of a bridge that burned today are
	// shared-bridge suspects: one direct strike and one trust level
	// down each. Suspicion propagates up the invitation chain at
	// PropagateFrac per hop, but propagated suspicion only demotes
	// trust (each accumulated unit costs the ancestor a level) — it
	// never bans, so a noisy branch cannot cascade the whole tree away
	// through its seed. Repeat offenders — direct strikes crossing
	// BanThreshold — are banned and their invitation subtree
	// quarantined with them.
	newlyBurned := st.newlyBurned
	clear(newlyBurned)
	for _, l := range newBurns {
		for _, r := range l.Resources {
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
			add := cfg.PropagateFrac
			for v := users[u].Parent; v >= 0; v = users[v].Parent {
				st.susp[v] += add
				st.clean[v] = 0
				for st.susp[v] >= 1 {
					st.susp[v]--
					if st.level[v] > 0 {
						st.level[v]--
					}
				}
				add *= cfg.PropagateFrac
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
	alive := 0
	for _, r := range st.part.Resources() {
		if st.cv.usable(r, day) {
			alive++
		}
	}
	st.last = TrustCellResult{
		Users:             len(users),
		Bootstrap:         frac(okUsers, len(users)),
		Survival:          frac(alive, st.part.Len()),
		Enumerated:        frac(len(st.cv.discovered), st.part.Len()),
		Banned:            frac(st.bannedCount, len(users)),
		Requests:          requests,
		Leaks:             st.leaks,
		Compromised:       st.numCompromised,
		CompromisedBanned: st.numCompromised - st.compromisedAlive,
	}
	if trustN > 0 {
		st.last.MeanTrust = float64(trustSum) / float64(trustN)
	}
	st.day = h
}

// result labels the row's current state for one cell.
func (st *trustState) result(c TrustCell) TrustCellResult {
	r := st.last
	r.Distributor = c.Dist.Name()
	r.Enumerator = c.Enum.Name()
	r.Day = c.Day
	return r
}
