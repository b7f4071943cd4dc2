package service

import (
	"math/bits"
	"math/rand/v2"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"github.com/i2pstudy/i2pstudy/internal/censor"
	"github.com/i2pstudy/i2pstudy/internal/sim"
)

// This file is the admission side of the daemon: a per-identity token
// bucket (the anti-enumeration rate limit every rdsys frontend applies
// before its distributor even sees the request) and an operator
// blacklist backed by the same censor.AddrSet bitsets the batch sweeps
// block against — reported abuser addresses resolve onto the network's
// address table via sim.AddrTable.IDOf.

// limiterShards keeps bucket contention off the parallel hot path; the
// shard of an identity is a pure function of its key.
const limiterShards = 64

// minSlots is a shard table's size before its first doubling.
const minSlots = 16

// slot is one identity's token bucket in a shard table. Tokens are in
// request units; last is the refill instant in nanoseconds since the
// limiter's epoch. A slot holds no pointer, so the garbage collector
// never walks a table however many identities a flood mints.
type slot struct {
	key    uint64
	tokens float64
	last   int64
}

// refill returns the tokens b holds at now before the clamp to the
// burst: the one expression both Allow's refill and the reclaim rule
// read, so a reclaimed bucket is exactly one that Allow would refill to
// its burst.
func (b *slot) refill(now int64, rate float64) float64 {
	return b.tokens + time.Duration(now-b.last).Seconds()*rate
}

// refilled reports whether b has refilled to its burst by now. Such a
// bucket decides what a missing one decides — its next request is
// granted and leaves burst-1 tokens with last at now — so it can be
// dropped without changing any decision.
func (b *slot) refilled(now int64, rate, burst float64) bool {
	return now > b.last && b.refill(now, rate) >= burst
}

// limiterShard is one shard's flat open-addressed table: linear probing
// from a keyed multiplicative hash, key 0 marking an empty slot. Past a
// load of ¾ it first reclaims its refilled buckets and doubles only if
// more than half the slots still hold one. Identity 0 is a valid key,
// so its bucket lives beside the table in zero.
type limiterShard struct {
	mu      sync.Mutex
	slots   []slot // len is a power of two, at least minSlots
	shift   uint   // 64 - log2(len(slots))
	mul     uint64 // the shard's secret odd hash multiplier
	n       int    // occupied slots
	zero    slot
	hasZero bool
}

// home is where id's probe sequence starts. The shard selector spends
// the low six bits of id^id>>32; within a shard those are fixed by bits
// 32–37, so id>>6 keeps everything that tells two members apart.
// Identities are client-chosen, so the multiplier is drawn at random
// per shard: with a public one, a flood could precompute keys whose
// probe sequences all start together and pay for one long cluster on
// every insert.
func (s *limiterShard) home(id uint64) uint64 {
	return (id >> 6) * s.mul >> s.shift
}

// lookup returns id's bucket, or the empty slot it goes in, and whether
// it was found — one probe sequence, no second lookup.
func (s *limiterShard) lookup(id uint64) (*slot, bool) {
	if id == 0 {
		return &s.zero, s.hasZero
	}
	mask := uint64(len(s.slots) - 1)
	for i := s.home(id); ; i = (i + 1) & mask {
		if b := &s.slots[i]; b.key == id || b.key == 0 {
			return b, b.key == id
		}
	}
}

// len returns the number of identities the shard holds.
func (s *limiterShard) len() int {
	if s.hasZero {
		return s.n + 1
	}
	return s.n
}

// alloc replaces the table with an empty one of size slots.
func (s *limiterShard) alloc(size int) {
	s.slots = make([]slot, size)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	s.n = 0
}

// grow doubles the table and reinserts every bucket.
func (s *limiterShard) grow() {
	old, n := s.slots, s.n
	s.alloc(2 * len(old))
	for _, b := range old {
		if b.key != 0 {
			dst, _ := s.lookup(b.key)
			*dst = b
		}
	}
	s.n = n
}

// reclaim deletes every bucket that has refilled by now, identity 0's
// included, in place. It walks the table once from just past an empty
// slot, so every cluster is met from its start; each deletion shifts
// the rest of its cluster back (backward-shift deletion), leaving every
// probe sequence unbroken, and the slot is examined again for the
// bucket shifted into it.
func (s *limiterShard) reclaim(now int64, rate, burst float64) {
	if s.hasZero && s.zero.refilled(now, rate, burst) {
		s.hasZero = false
	}
	mask := uint64(len(s.slots) - 1)
	start := uint64(0)
	for s.slots[start].key != 0 { // the load stays at most ¾: one is empty
		start++
	}
	for i, left := (start+1)&mask, len(s.slots)-1; left > 0; {
		if b := &s.slots[i]; b.key != 0 && b.refilled(now, rate, burst) {
			s.remove(i)
			continue
		}
		i, left = (i+1)&mask, left-1
	}
}

// remove empties slot hole and moves each later bucket of its cluster
// that may sit there back into the hole, until the cluster ends.
func (s *limiterShard) remove(hole uint64) {
	mask := uint64(len(s.slots) - 1)
	for i := (hole + 1) & mask; s.slots[i].key != 0; i = (i + 1) & mask {
		// The bucket at i may fill the hole when its home is not after
		// the hole: it is at least as far from home as from the hole.
		if (i-s.home(s.slots[i].key))&mask >= (i-hole)&mask {
			s.slots[hole] = s.slots[i]
			hole = i
		}
	}
	s.slots[hole] = slot{}
	s.n--
}

// reset forgets every identity, keeping the table's size.
func (s *limiterShard) reset() {
	clear(s.slots)
	s.n, s.hasZero = 0, false
}

// Limiter is a sharded per-identity token bucket. Identities are the
// ring keys requests already carry, so placing one costs a multiply,
// not a string hash. A shard keeps only buckets that can still refuse:
// one refilled to its burst is reclaimed before the table would double,
// so under a flood of fresh identities the table is bounded by the
// identities one refill horizon (burst/rate) brings, not by how many
// the flood mints. Safe for concurrent use.
type Limiter struct {
	rate  float64 // tokens per second
	burst float64
	// maxPerShard bounds memory under identity floods. It counts only
	// the buckets that can still refuse: a new identity arriving at a
	// shard that holds maxPerShard first reclaims the refilled ones, and
	// empties the shard only if maxPerShard unrefilled buckets remain.
	// Emptying hands those drained identities a full burst, so it is the
	// last resort of a flood that drains faster than buckets refill.
	maxPerShard int
	now         func() time.Time
	// epoch is the construction instant slot.last counts from. Both
	// ends of every difference come from now, so the subtraction is the
	// same integer time.Time.Sub yields, monotonic reading included.
	epoch time.Time

	shards [limiterShards]limiterShard
}

// defaultBurst is the bucket depth NewLimiter grants when its caller
// names none.
const defaultBurst = 2

// NewLimiter returns a limiter granting rate requests per second with
// the given burst (<= 0: defaultBurst). rate <= 0 disables limiting —
// Allow always grants.
func NewLimiter(rate float64, burst int, now func() time.Time) *Limiter {
	if burst <= 0 {
		burst = defaultBurst
	}
	if now == nil {
		now = time.Now
	}
	l := &Limiter{rate: rate, burst: float64(burst), maxPerShard: 1 << 16, now: now, epoch: now()}
	for i := range l.shards {
		l.shards[i].mul = rand.Uint64() | 1
		l.shards[i].alloc(minSlots)
	}
	return l
}

// Allow reports whether the identity may make one request now.
func (l *Limiter) Allow(id uint64) bool {
	if l.rate <= 0 {
		return true
	}
	s := &l.shards[(id^id>>32)%limiterShards]
	s.mu.Lock()
	defer s.mu.Unlock()
	// Read under the lock, the clock is monotone within a shard (unless
	// an injected one runs backwards), so a reclaimed bucket never meets
	// a request older than its refill.
	now := int64(l.now().Sub(l.epoch))
	b, ok := s.lookup(id)
	if !ok {
		crowded := id != 0 && 4*(s.n+1) > 3*len(s.slots)
		if crowded || s.len() >= l.maxPerShard {
			s.reclaim(now, l.rate, l.burst)
			// Doubling only past half load leaves at least a quarter of
			// the table to fill before the next reclaim, so reclaiming
			// costs O(1) per insert amortized.
			switch {
			case s.len() >= l.maxPerShard:
				s.reset()
			case crowded && 2*s.n > len(s.slots):
				s.grow()
			}
			b, _ = s.lookup(id)
		}
		*b = slot{key: id, tokens: l.burst - 1, last: now}
		if id == 0 {
			s.hasZero = true
		} else {
			s.n++
		}
		return true
	}
	// An injected clock may run backwards: such an instant refills
	// nothing and leaves last where it is.
	if now > b.last {
		b.tokens = b.refill(now, l.rate)
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// buckets returns the number of buckets held across all shards.
func (l *Limiter) buckets() int {
	n := 0
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		n += s.len()
		s.mu.Unlock()
	}
	return n
}

// Blacklist is the operator blacklist: an AddrSet over the network's
// address table, shared representation with the censor sweeps.
// Mutations take the write lock and republish the set's size in n; the
// hot-path membership check reads n first, so while nothing is blocked
// it takes no lock and looks nothing up.
type Blacklist struct {
	addrs *sim.AddrTable
	n     atomic.Int64

	mu  sync.RWMutex
	set *censor.AddrSet
}

// NewBlacklist returns an empty blacklist over the network's addresses.
func NewBlacklist(network *sim.Network) *Blacklist {
	return &Blacklist{addrs: network.AddrTable(), set: censor.IndexFor(network).NewSet()}
}

// Block adds an address. Addresses the study never interned are
// unblockable — they cannot reach the ring either — and report false.
func (b *Blacklist) Block(a netip.Addr) bool {
	return b.update(a, (*censor.AddrSet).Add)
}

// Unblock removes an address.
func (b *Blacklist) Unblock(a netip.Addr) bool {
	return b.update(a, (*censor.AddrSet).Remove)
}

// update applies one mutation under the write lock and republishes n.
func (b *Blacklist) update(a netip.Addr, op func(*censor.AddrSet, int32) bool) bool {
	id := b.addrs.IDOf(a)
	if id < 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	changed := op(b.set, id)
	b.n.Store(int64(b.set.Len()))
	return changed
}

// Blocked reports whether an address is blacklisted.
func (b *Blacklist) Blocked(a netip.Addr) bool {
	return b.Len() > 0 && b.has(a)
}

// has is Blocked without the empty-set shortcut, for callers that have
// already read Len to skip work of their own.
func (b *Blacklist) has(a netip.Addr) bool {
	id := b.addrs.IDOf(a)
	if id < 0 {
		return false
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.set.Has(id)
}

// Len returns the number of blacklisted addresses.
func (b *Blacklist) Len() int { return int(b.n.Load()) }
