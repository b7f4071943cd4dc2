package service

import (
	"net/netip"
	"sync"
	"time"

	"github.com/i2pstudy/i2pstudy/internal/censor"
)

// This file is the admission side of the daemon: a per-identity token
// bucket (the anti-enumeration rate limit every rdsys frontend applies
// before its distributor even sees the request) and an operator
// blacklist backed by the same censor.AddrSet bitsets the batch sweeps
// block against — reported abuser addresses intern onto the study's
// address table via AddrIndex.IDOf.

// limiterShards keeps bucket contention off the parallel hot path; the
// shard of an identity is a pure function of its key.
const limiterShards = 64

// bucket is one identity's token bucket. Tokens are in request units;
// last is the refill instant in nanoseconds since the limiter's epoch.
// The table holds buckets by value and a bucket holds no pointer, so the
// garbage collector never walks the shard maps however many identities
// a flood mints.
type bucket struct {
	tokens float64
	last   int64
}

// Limiter is a sharded per-identity token bucket. Identities are the
// ring keys requests already carry, so the limiter needs no extra
// hashing. Safe for concurrent use.
type Limiter struct {
	rate  float64 // tokens per second
	burst float64
	// maxPerShard bounds memory under identity floods: when a shard
	// fills, its table resets — a flood forgets oldest-first anyway, and
	// the simulation never needs an exact LRU.
	maxPerShard int
	now         func() time.Time
	// epoch is the construction instant bucket.last counts from. Both
	// ends of every difference come from now, so the subtraction is the
	// same integer time.Time.Sub yields, monotonic reading included.
	epoch time.Time

	shards [limiterShards]struct {
		mu sync.Mutex
		m  map[uint64]bucket
	}
}

// NewLimiter returns a limiter granting rate requests per second with
// the given burst (<= 0: burst 2). rate <= 0 disables limiting — Allow
// always grants.
func NewLimiter(rate float64, burst int, now func() time.Time) *Limiter {
	if burst <= 0 {
		burst = 2
	}
	if now == nil {
		now = time.Now
	}
	l := &Limiter{rate: rate, burst: float64(burst), maxPerShard: 1 << 16, now: now, epoch: now()}
	for i := range l.shards {
		l.shards[i].m = make(map[uint64]bucket)
	}
	return l
}

// Allow reports whether the identity may make one request now.
func (l *Limiter) Allow(id uint64) bool {
	if l.rate <= 0 {
		return true
	}
	s := &l.shards[(id^id>>32)%limiterShards]
	now := int64(l.now().Sub(l.epoch))
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[id]
	if !ok {
		if len(s.m) >= l.maxPerShard {
			s.m = make(map[uint64]bucket)
		}
		s.m[id] = bucket{tokens: l.burst - 1, last: now}
		return true
	}
	b.tokens += time.Duration(now-b.last).Seconds() * l.rate
	if b.tokens > l.burst {
		b.tokens = l.burst
	}
	b.last = now
	allowed := b.tokens >= 1
	if allowed {
		b.tokens--
	}
	s.m[id] = b
	return allowed
}

// Blacklist is the operator blacklist: an AddrSet over the study's
// interned address table, shared representation with the censor sweeps.
// Mutations take the write lock; the hot-path membership check only
// takes the read lock.
type Blacklist struct {
	ix *censor.AddrIndex

	mu  sync.RWMutex
	set *censor.AddrSet
}

// NewBlacklist returns an empty blacklist over the index.
func NewBlacklist(ix *censor.AddrIndex) *Blacklist {
	return &Blacklist{ix: ix, set: ix.NewSet()}
}

// Block adds an address. Addresses the study never interned are
// unblockable — they cannot reach the ring either — and report false.
func (b *Blacklist) Block(a netip.Addr) bool {
	id := b.ix.IDOf(a)
	if id < 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.set.Add(id)
}

// Unblock removes an address.
func (b *Blacklist) Unblock(a netip.Addr) bool {
	id := b.ix.IDOf(a)
	if id < 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.set.Remove(id)
}

// Blocked reports whether an address is blacklisted.
func (b *Blacklist) Blocked(a netip.Addr) bool {
	id := b.ix.IDOf(a)
	if id < 0 {
		return false
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.set.Has(id)
}

// Len returns the number of blacklisted addresses.
func (b *Blacklist) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.set.Len()
}
