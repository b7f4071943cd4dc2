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

// SweepConfig declares a (distributor x enumeration strategy x day) grid.
type SweepConfig struct {
	// Strategy selects the backend's candidate pool.
	Strategy censor.BridgeStrategy
	// Distributors are the frontends sharing each day's backend ring.
	Distributors []Distributor
	// Enumerators are the censor strategies evaluated against each
	// frontend.
	Enumerators []Enumerator
	// Days are the distribution days; each gets its own backend pool.
	Days []int
	// HorizonDays is how many days past distribution each cell simulates
	// (Day+HorizonDays must stay inside the study window).
	HorizonDays int
	// Users is the censored user population per cell (<= 0: 50).
	Users int
	// MaxResources caps each day's backend pool (<= 0:
	// DefaultMaxResources).
	MaxResources int
	// SeedBase drives every random draw; cells derive private seeds from
	// it and their own coordinates, never from grid position.
	SeedBase uint64
	// Workers caps engine concurrency: <= 0 one worker per CPU, 1 the
	// serial reference path. Results are byte-identical either way.
	Workers int
}

// Cell is one point of the sweep grid.
type Cell struct {
	Dist Distributor
	Enum Enumerator
	// Day is the distribution day.
	Day int
}

// CellResult is one cell's arms-race outcome: per-horizon-day series, all
// fractions in [0, 1].
type CellResult struct {
	Distributor string
	Enumerator  string
	Day         int
	// PartitionSize is how many pool resources the hashring assigned to
	// this frontend.
	PartitionSize int
	// Bootstrap[h] is the fraction of users holding at least one usable
	// bridge h days after distribution — the bootstrap success rate.
	Bootstrap []float64
	// Survival[h] is the fraction of the partition still usable
	// (active and unblocked) h days after distribution.
	Survival []float64
	// Enumerated[h] is the fraction of the partition the censor has
	// discovered by day h.
	Enumerated []float64
	// Collateral[h] is the fraction of the censor's blacklist that, on
	// day h, blocks addresses currently published by peers *outside* the
	// bridge pool — innocent bystanders inherited through IP churn.
	Collateral []float64
}

// FinalBootstrap returns the last-day bootstrap success rate.
func (r CellResult) FinalBootstrap() float64 {
	if len(r.Bootstrap) == 0 {
		return 0
	}
	return r.Bootstrap[len(r.Bootstrap)-1]
}

// FinalSurvival returns the last-day partition survival.
func (r CellResult) FinalSurvival() float64 {
	if len(r.Survival) == 0 {
		return 0
	}
	return r.Survival[len(r.Survival)-1]
}

// DaysToEnumerate returns the first horizon day on which the censor had
// discovered at least frac of the partition, or -1 if it never did.
func (r CellResult) DaysToEnumerate(frac float64) int {
	for h, e := range r.Enumerated {
		if e >= frac {
			return h
		}
	}
	return -1
}

// Sweep binds a grid to a network with the shared substrate built once:
// one backend pool per distribution day, holding each resource's
// introducers by peer index. Cells resolve everything else through the
// network's censor.AddrIndex (censor.IndexFor), its one derived state:
// the blacklist, and through its day columns the peers holding the
// blacklisted addresses each day (AddrIndex.Holders). A Sweep derives no
// network table of its own.
type Sweep struct {
	Net *sim.Network
	Cfg SweepConfig

	// backends hold one pool per distribution day; each serves its
	// cells' handouts through its API, the same request → handout code
	// path the resident service (internal/service) exposes over HTTP, so
	// the worker-determinism goldens covering these cells cover the
	// daemon's responses too.
	backends map[int]*Backend
}

// NewSweep validates the grid and builds the shared backends. Building is
// serial and deterministic; cells only read from it.
func NewSweep(network *sim.Network, cfg SweepConfig) (*Sweep, error) {
	if len(cfg.Distributors) == 0 || len(cfg.Enumerators) == 0 || len(cfg.Days) == 0 {
		return nil, fmt.Errorf("distrib: sweep needs at least one distributor, enumerator and day")
	}
	if cfg.HorizonDays < 0 {
		return nil, fmt.Errorf("distrib: negative horizon %d", cfg.HorizonDays)
	}
	if cfg.Users <= 0 {
		cfg.Users = 50
	}
	if cfg.MaxResources <= 0 {
		cfg.MaxResources = DefaultMaxResources
	}
	s := &Sweep{
		Net:      network,
		Cfg:      cfg,
		backends: make(map[int]*Backend, len(cfg.Days)),
	}
	for _, day := range cfg.Days {
		if day+cfg.HorizonDays >= network.Days() {
			return nil, fmt.Errorf("distrib: horizon (day %d + %d) exceeds network days (%d)",
				day, cfg.HorizonDays, network.Days())
		}
		if _, ok := s.backends[day]; ok {
			continue
		}
		b, err := NewBackend(network, BackendConfig{
			Strategy:     cfg.Strategy,
			Day:          day,
			MaxResources: cfg.MaxResources,
			Seed:         cfg.SeedBase,
		}, cfg.Distributors)
		if err != nil {
			return nil, err
		}
		s.backends[day] = b
	}
	return s, nil
}

// Cells enumerates the grid in deterministic order: days outermost, then
// enumerators, then distributors, each in configured order.
func (s *Sweep) Cells() []Cell {
	out := make([]Cell, 0, len(s.Cfg.Days)*len(s.Cfg.Enumerators)*len(s.Cfg.Distributors))
	for _, day := range s.Cfg.Days {
		for _, e := range s.Cfg.Enumerators {
			for _, d := range s.Cfg.Distributors {
				out = append(out, Cell{Dist: d, Enum: e, Day: day})
			}
		}
	}
	return out
}

// cellSeed derives a cell's private seed from its coordinates — never
// from its grid position, so reshaping the grid cannot change a cell.
func (s *Sweep) cellSeed(c Cell) uint64 {
	return mix(s.Cfg.SeedBase,
		keyOfString(c.Dist.Name()),
		uint64(c.Enum.Kind)+1,
		math.Float64bits(c.Enum.Budget),
		math.Float64bits(c.Enum.InsiderFrac),
		uint64(c.Day)+1)
}

// Run evaluates every cell across the worker pool and returns results
// in Cells() order. Unlike the trust sweep, cells are their own
// pool.FanOut tasks rather than whole rows: an arms-race cell
// carries no rolling state a row could slide — each cell is seeded
// from its own coordinates and the day columns it reads are the
// index's, built once per day in any order — so grouping cells into
// rows would only cap parallelism (a one-distributor, one-enumerator,
// many-day grid would serialize) without saving any work. Every cell is
// deterministic in its own coordinates, so any Workers value yields
// byte-identical results. The first error (or ctx cancellation) cancels
// the rest.
func (s *Sweep) Run(ctx context.Context) ([]CellResult, error) {
	cells := s.Cells()
	results := make([]CellResult, len(cells))
	err := pool.FanOut(ctx, len(cells), s.Cfg.Workers, func(i int) error {
		res, err := s.runCell(cells[i], nil)
		results[i] = res
		return err
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// runCell simulates one cell's arms race over the horizon: each day,
// users without a working bridge re-request from the frontend, the
// enumerator harvests, discoveries feed the address blacklist, and the
// series record the day's outcome. Everything is local to the cell and
// deterministic in its seed. A non-nil audit sees each day's blacklist
// beside the bystanders counted on it; Run passes nil, and the
// collateral test holds the count to its reference through it.
func (s *Sweep) runCell(c Cell, audit func(day int, bl *censor.AddrSet, bystanders int)) (CellResult, error) {
	backend := s.backends[c.Day]
	seed := s.cellSeed(c)
	rng := rand.New(rand.NewPCG(seed, seed^0xA5A5A5A55A5A5A5A))

	// The censor's enumeration-fed blacklist and discovery set, with
	// the discover/usable rules and the crawler and sybil enumeration
	// shared with the trust rows (view.go).
	cv := newCensorView(s.Net, backend, c.Dist, c.Enum, seed, rng)
	res := CellResult{
		Distributor:   c.Dist.Name(),
		Enumerator:    c.Enum.Name(),
		Day:           c.Day,
		PartitionSize: cv.part.Len(),
	}

	// Censored users: sticky identities, re-requesting only while cut
	// off; handouts[u] is user u's current handout.
	ids := make([]uint64, s.Cfg.Users)
	for u := range ids {
		ids[u] = mix(seed, 0x75736572, uint64(u)) // "user"
	}
	handouts := make([][]Resource, len(ids))

	for h := 0; h <= s.Cfg.HorizonDays; h++ {
		day := c.Day + h

		// 1. Legitimate requests: day zero everyone bootstraps; later,
		// only users whose current handout no longer works. Every attempt
		// counts as a request (the insider can intercept each one), even
		// when the unchanged ring key serves the same handout again.
		var requested []int
		for u, id := range ids {
			if h > 0 && cv.anyUsable(handouts[u], day) {
				continue
			}
			served, err := backend.API().Serve(Request{Dist: c.Dist.Name(), ID: id, Day: day})
			if err != nil {
				return CellResult{}, err
			}
			handouts[u] = served.Resources
			requested = append(requested, u)
		}

		// 2. Enumeration: the crawler and the sybils through the view,
		// the insider by a coin per intercepted request.
		if err := cv.enumerate(day); err != nil {
			return CellResult{}, err
		}
		if c.Enum.Kind == Insider {
			for _, u := range requested {
				if rng.Float64() < c.Enum.InsiderFrac {
					cv.discover(handouts[u], day)
				}
			}
		}

		// 3. The day's outcome.
		okUsers := 0
		for _, hr := range handouts {
			if cv.anyUsable(hr, day) {
				okUsers++
			}
		}
		res.Bootstrap = append(res.Bootstrap, frac(okUsers, len(ids)))
		res.Survival = append(res.Survival, cv.survival(day))
		res.Enumerated = append(res.Enumerated, cv.enumerated())

		bystanders := 0
		cv.ix.Holders(cv.bl, day, func(_ int32, peer int) {
			if !backend.InPool(peer) {
				bystanders++
			}
		})
		res.Collateral = append(res.Collateral, frac(bystanders, cv.bl.Len()))
		if audit != nil {
			audit(day, cv.bl, bystanders)
		}
	}
	return res, nil
}

// frac returns n/d, or 0 for an empty denominator.
func frac(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
