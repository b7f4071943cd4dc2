package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/i2pstudy/i2pstudy/internal/distrib"
)

// This file holds the references the request path's bit-compatible
// rewrites are compared against (ROADMAP, "Bit-compatible rewrites keep
// their reference"): the HandoutJSON + json.Encoder body assembly that
// writeHandout replaced, the pointer-bucket time.Time limiter that the
// pointer-free table replaced, and — in FuzzHandoutQuery — net/url as
// parseQuery's oracle. They are not dead code.

// referenceHandoutBody is the old body assembly: build the HandoutJSON
// from the served handout and run it through a json.Encoder.
func referenceHandoutBody(t testing.TB, svc *Service, dist, id string, attempt int) []byte {
	t.Helper()
	h, err := svc.Serve(distrib.Request{Dist: dist, ID: distrib.IdentityKey(id), Attempt: attempt})
	if err != nil {
		t.Fatal(err)
	}
	resp := HandoutJSON{
		Distributor: h.Distributor,
		Day:         h.Day,
		ID:          id,
		Granted:     h.Granted,
		Bridges:     make([]BridgeJSON, 0, len(h.Resources)),
	}
	for _, res := range h.Resources {
		b := BridgeJSON{
			Peer:     res.Peer,
			Key:      strconv.FormatUint(res.Key, 10),
			Identity: res.Record.Identity.String(),
			Version:  res.Record.Version,
		}
		if len(res.Record.Addresses) > 0 {
			if a := res.Record.Addresses[0]; a.Addr.IsValid() {
				b.Addr, b.Port = a.Addr.String(), a.Port
			}
		}
		resp.Bridges = append(resp.Bridges, b)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// hostileIDs are identities chosen against the string encoder: the
// HTML-escaped set, quotes and backslashes, control bytes, invalid
// UTF-8, the line separators encoding/json escapes, DEL, multi-byte
// runes and an id longer than any fragment.
var hostileIDs = []string{
	"alice",
	"load-123456",
	`<script>&"\`,
	"\xff\xfe-invalid-utf8",
	"line\u2028sep\u2029",
	"tab\tnew\nline\x00",
	"del\x7f",
	"naïve-идентичность",
	"a b+c%41;d=e&f",
	strings.Repeat("x", 300),
}

// differentialService is a service over the default frontends plus a
// trust-social one, whose graph never minted a string identity: every
// HTTP requester is uninvited there ("granted":false,"bridges":[]).
func differentialService(t testing.TB) *Service {
	t.Helper()
	return newTestService(t, Config{
		Distributors: append(distrib.DefaultDistributors(), distrib.NewTrustSocial(distrib.TrustSocialConfig{})),
	})
}

// compareWithReference requests (dist, id, attempt) — percent-encoded,
// and raw too when the id survives a query unescaped — and requires the
// reference's bytes.
func compareWithReference(t testing.TB, svc *Service, h http.Handler, dist, id string, attempt int) []byte {
	t.Helper()
	want := referenceHandoutBody(t, svc, dist, id, attempt)
	v := url.Values{"dist": {dist}, "id": {id}, "attempt": {strconv.Itoa(attempt)}}
	queries := []string{v.Encode()}
	if id == url.QueryEscape(id) {
		queries = append(queries, "dist="+dist+"&id="+id+"&attempt="+strconv.Itoa(attempt))
	}
	for _, q := range queries {
		rw := &discardWriter{capture: true}
		h.ServeHTTP(rw, &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/handout", RawQuery: q}})
		if rw.code != http.StatusOK {
			t.Fatalf("GET /handout?%s: status %d", q, rw.code)
		}
		if got := rw.body.Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("GET /handout?%s:\n got %q\nwant %q", q, got, want)
		}
		if ct := rw.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("GET /handout?%s: Content-Type %q", q, ct)
		}
	}
	return want
}

// TestHandoutBodyMatchesReference is the body half of "no byte moved":
// every frontend × hostile identity × attempt, before and after a
// retirement, equals the old encoder's output and still decodes as
// HandoutJSON.
func TestHandoutBodyMatchesReference(t *testing.T) {
	svc := differentialService(t)
	h := svc.Handler()
	sweep := func() (ungranted int) {
		for _, dist := range svc.HandoutAPI().Distributors() {
			for _, id := range hostileIDs {
				for attempt := 0; attempt <= 2; attempt++ {
					body := compareWithReference(t, svc, h, dist, id, attempt)
					var resp HandoutJSON
					if err := json.Unmarshal(body, &resp); err != nil {
						t.Fatalf("%s/%q: body does not decode: %v", dist, id, err)
					}
					if resp.Distributor != dist || resp.Bridges == nil {
						t.Fatalf("%s/%q: decoded %+v", dist, id, resp)
					}
					if !resp.Granted {
						ungranted++
						if want := `"granted":false,"bridges":[]}` + "\n"; !bytes.HasSuffix(body, []byte(want)) {
							t.Fatalf("%s/%q: ungranted body %q lacks %q", dist, id, body, want)
						}
					}
				}
			}
		}
		return ungranted
	}
	if sweep() == 0 {
		t.Fatal("no request was refused a grant; the trust-social frontend is not exercised")
	}

	// Retire the first bridge alice is served over https: her body must
	// change, and every body must still equal the reference.
	before := referenceHandoutBody(t, svc, "https", "alice", 0)
	served, err := svc.Serve(distrib.Request{Dist: "https", ID: distrib.IdentityKey("alice")})
	if err != nil || len(served.Resources) == 0 {
		t.Fatalf("alice served %d bridges, err %v", len(served.Resources), err)
	}
	if err := svc.retire([]int{served.Resources[0].Peer}); err != nil {
		t.Fatal(err)
	}
	if after := compareWithReference(t, svc, h, "https", "alice", 0); bytes.Equal(before, after) {
		t.Fatal("retiring a served bridge left the body unchanged")
	}
	sweep()
}

// FuzzHandoutBody compares writeHandout with the reference encoder for
// arbitrary identities on every frontend.
func FuzzHandoutBody(f *testing.F) {
	svc := differentialService(f)
	h := svc.Handler()
	dists := svc.HandoutAPI().Distributors()
	for i, id := range hostileIDs {
		f.Add(uint8(i), id, uint8(i%3))
	}
	f.Fuzz(func(t *testing.T, dist uint8, id string, attempt uint8) {
		if id == "" || len(id) > 300 { // 400 and (escaped threefold) 414 have no body to compare
			t.Skip()
		}
		compareWithReference(t, svc, h, dists[int(dist)%len(dists)], id, int(attempt))
	})
}

// referenceLimiter is the limiter the pointer-free table replaced: one
// heap bucket per identity holding the time.Time of its last refill. A
// new identity arriving at a full shard drops the buckets refilled to
// their burst, then empties the shard if it is still full.
type referenceLimiter struct {
	rate, burst float64
	maxPerShard int
	now         func() time.Time
	shards      [limiterShards]map[uint64]*referenceBucket
}

type referenceBucket struct {
	tokens float64
	last   time.Time
}

func newReferenceLimiter(rate float64, burst, maxPerShard int, now func() time.Time) *referenceLimiter {
	l := &referenceLimiter{rate: rate, burst: float64(burst), maxPerShard: maxPerShard, now: now}
	for i := range l.shards {
		l.shards[i] = make(map[uint64]*referenceBucket)
	}
	return l
}

func (l *referenceLimiter) Allow(id uint64) bool {
	if l.rate <= 0 {
		return true
	}
	shard := (id ^ id>>32) % limiterShards
	m := l.shards[shard]
	now := l.now()
	b, ok := m[id]
	if !ok {
		if len(m) >= l.maxPerShard {
			for k, b := range m {
				if l.refilled(b, now) {
					delete(m, k) // decides what a missing bucket decides
				}
			}
		}
		if len(m) >= l.maxPerShard {
			m = make(map[uint64]*referenceBucket)
			l.shards[shard] = m
		}
		m[id] = &referenceBucket{tokens: l.burst - 1, last: now}
		return true
	}
	b.tokens += now.Sub(b.last).Seconds() * l.rate
	if b.tokens > l.burst {
		b.tokens = l.burst
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// refilled reports whether b has refilled to its burst by now.
func (l *referenceLimiter) refilled(b *referenceBucket, now time.Time) bool {
	return now.After(b.last) && b.tokens+now.Sub(b.last).Seconds()*l.rate >= l.burst
}

// has reports whether the shard holds id.
func (s *limiterShard) has(id uint64) bool {
	_, ok := s.lookup(id)
	return ok
}

// inShard rewrites the low six bits of id so that it lands in shard.
func inShard(id, shard uint64) uint64 {
	return id&^63 | (id>>32^shard)&63
}

// collidingKeys returns n distinct identities of shard 5 whose probe
// sequences, under multiplier mul, all start at the same slot of a
// table of size slots.
func collidingKeys(rng *rand.Rand, mul uint64, slots, n int) []uint64 {
	probe := limiterShard{mul: mul}
	probe.alloc(slots)
	seen := make(map[uint64]bool, n)
	keys := make([]uint64, 0, n)
	for len(keys) < n {
		id := inShard(rng.Uint64(), 5)
		if id != 0 && !seen[id] && probe.home(id) == 3 {
			seen[id] = true
			keys = append(keys, id)
		}
	}
	return keys
}

// TestLimiterMatchesReference drives both limiters through seeded
// schedules of (identity, clock advance) and requires the same decision
// every time, on a wall-only clock and on one carrying a monotonic
// reading. Every schedule mixes a hot set (identities 0–49, identity 0's
// bucket living beside its shard's table) that drains and refills with
// other identities: fresh ones that, while the clock stands still, fill
// shards with maxPerShard unrefilled buckets and reset them; keys that
// share one probe sequence, through resets and through a doubling; a
// flood into four shards that, on a still clock, doubles their tables
// from minSlots up and then resets them; and the same flood on a moving
// clock, whose buckets refill and are reclaimed, so its 12 500
// identities per shard leave each table at the few slots one refill
// horizon's arrivals need. Every schedule reclaims refilled buckets
// somewhere: its lulls refill them all.
func TestLimiterMatchesReference(t *testing.T) {
	var collide []uint64 // drawn per limiter, under its shard 5 multiplier
	flood := func(rng *rand.Rand) uint64 { return inShard(rng.Uint64(), uint64(rng.Intn(4))) }
	for _, tc := range []struct {
		name  string
		start time.Time
	}{
		{"wall clock", time.Unix(1700000000, 0)},
		{"monotonic clock", time.Now()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, sc := range []struct {
				name                  string
				maxPerShard           int
				other                 func(*rand.Rand) uint64
				still                 [2]int // the steps over which the clock stands still
				wantGrows, wantResets bool
				maxSlots              int // the largest table a shard may reach; 0: unbounded
			}{
				{"fresh", 8, func(rng *rand.Rand) uint64 { return rng.Uint64() }, [2]int{50000, 60000}, false, true, 0},
				{"colliding", 8, func(rng *rand.Rand) uint64 { return collide[rng.Intn(len(collide))] }, [2]int{}, false, true, 0},
				{"colliding past a doubling", 1 << 12, func(rng *rand.Rand) uint64 { return collide[rng.Intn(len(collide))] }, [2]int{}, true, false, 0},
				{"flood", 1 << 12, flood, [2]int{50000, 150000}, true, true, 0},
				{"flood with refills", 1 << 12, flood, [2]int{}, true, false, 8 * minSlots},
			} {
				t.Run(sc.name, func(t *testing.T) {
					clk := tc.start
					now := func() time.Time { return clk }
					got := NewLimiter(5, 4, now)
					got.maxPerShard = sc.maxPerShard
					want := newReferenceLimiter(5, 4, sc.maxPerShard, now)
					collide = collidingKeys(rand.New(rand.NewSource(7)), got.shards[5].mul, minSlots, 24)

					rng := rand.New(rand.NewSource(2018))
					advances := []time.Duration{0, 0, time.Nanosecond, 10 * time.Microsecond, 700 * time.Microsecond, 3 * time.Millisecond, 9 * time.Millisecond}
					var allowed, refused, resets, reclaims, grows, peak int
					var zero [2]int // identity 0's refusals and grants
					for step := 0; step < 200000; step++ {
						advance := advances[rng.Intn(len(advances))]
						lull := rng.Intn(1000) == 0 // every bucket refills to its burst
						if step < sc.still[0] || step >= sc.still[1] {
							clk = clk.Add(advance)
							if lull {
								clk = clk.Add(2 * time.Second)
							}
						}
						id := uint64(rng.Intn(50)) // the hot set
						if rng.Intn(4) == 0 {
							id = sc.other(rng)
						}
						shard := &got.shards[(id^id>>32)%limiterShards]
						known, held, size := shard.has(id), shard.len(), len(shard.slots)
						reset := !known && held >= sc.maxPerShard && got.unrefilled(shard) >= sc.maxPerShard
						g, w := got.Allow(id), want.Allow(id)
						if g != w {
							t.Fatalf("step %d, identity %d: Allow = %v, reference %v", step, id, g, w)
						}
						switch {
						case reset:
							resets++
						case !known && shard.len() <= held:
							reclaims++
						}
						if len(shard.slots) > size {
							grows++
						}
						peak = max(peak, len(shard.slots))
						if id == 0 {
							zero[b2i(g)]++
						}
						if g {
							allowed++
						} else {
							refused++
						}
					}
					if refused == 0 || zero[0] == 0 || zero[1] == 0 || (resets > 0) != sc.wantResets || (grows > 0) != sc.wantGrows ||
						reclaims == 0 || sc.maxSlots > 0 && peak > sc.maxSlots {
						t.Fatalf("schedule misses its cases: %d allowed, %d refused, identity 0 refused %d and allowed %d, %d shard resets, %d reclaims, %d doublings up to %d slots",
							allowed, refused, zero[0], zero[1], resets, reclaims, grows, peak)
					}
				})
			}
		})
	}
}

// unrefilled counts the buckets of s, identity 0's included, that have
// not refilled to their burst on l's clock.
func (l *Limiter) unrefilled(s *limiterShard) int {
	now := int64(l.now().Sub(l.epoch))
	n := 0
	if s.hasZero && !s.zero.refilled(now, l.rate, l.burst) {
		n++
	}
	for i := range s.slots {
		if b := &s.slots[i]; b.key != 0 && !b.refilled(now, l.rate, l.burst) {
			n++
		}
	}
	return n
}

// b2i counts a true as 1.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestLimiterRefillNeverRunsBackwards: requests read the clock under
// the shard lock, so on a monotone clock no request reaches a bucket
// carrying an instant older than the bucket's last refill. An injected
// clock may still run backwards, and Allow keeps its guard for it: such
// a request must refill nothing and leave last alone — tokens fall only
// by the grant, and last never decreases.
func TestLimiterRefillNeverRunsBackwards(t *testing.T) {
	clk := time.Unix(1700000000, 0)
	l := NewLimiter(5, 4, func() time.Time { return clk })
	bucket := func(id uint64) slot {
		b, ok := l.shards[(id^id>>32)%limiterShards].lookup(id)
		if !ok {
			t.Fatalf("identity %d has no bucket", id)
		}
		return *b
	}
	const id = 42
	l.Allow(id) // 3 tokens left
	clk = clk.Add(-time.Second)
	if !l.Allow(id) {
		t.Fatal("a request carrying an older instant was refused with tokens left")
	}

	rng := rand.New(rand.NewSource(2018))
	for step := 0; step < 10000; step++ {
		clk = clk.Add(time.Duration(rng.Intn(20)-10) * time.Millisecond)
		before := bucket(id)
		granted := l.Allow(id)
		after := bucket(id)
		if after.last < before.last {
			t.Fatalf("step %d: last moved back from %d to %d", step, before.last, after.last)
		}
		if refill := after.tokens - before.tokens + float64(b2i(granted)); refill < 0 {
			t.Fatalf("step %d: the refill took %.3f tokens", step, -refill)
		}
	}
}

// FuzzLimiterMatchesReference holds Allow to referenceLimiter decision
// for decision over arbitrary schedules with a small maxPerShard. Each
// byte pair is one request: an identity of shard 0 or 1 (identity 0
// among them) and a clock advance, from none up to past the refill
// horizon. After every step the request's shard must keep its table
// invariant — every bucket reachable from its home slot without
// crossing an empty slot, n counting the occupied slots — which
// backward-shift deletion is the first to break, and its buckets that
// can still refuse must be the reference's, token for token.
func FuzzLimiterMatchesReference(f *testing.F) {
	f.Add(uint8(3), uint64(0x9E3779B97F4A7C15), []byte("\x00\x00\x00\x00\x02\x00\x04\x00\x06\x00\x08\x00\x00\x64\x0a\x00\x00\xc8"))
	f.Add(uint8(63), uint64(1), bytes.Repeat([]byte{0x10, 0x00, 0x12, 0x00, 0x14, 0x00, 0x16, 0x40, 0x11, 0x65}, 40))
	rng := rand.New(rand.NewSource(2018))
	for range 4 {
		schedule := make([]byte, 600)
		rng.Read(schedule)
		f.Add(uint8(rng.Intn(64)), rng.Uint64(), schedule)
	}
	f.Fuzz(func(t *testing.T, maxPerShard uint8, mul uint64, schedule []byte) {
		clk := time.Unix(1700000000, 0)
		now := func() time.Time { return clk }
		got := NewLimiter(5, 4, now)
		got.maxPerShard = 1 + int(maxPerShard%64)
		for i := range got.shards {
			got.shards[i].mul = mul | 1 // reproducible, and a poor one clusters
		}
		want := newReferenceLimiter(5, 4, got.maxPerShard, now)
		for step := 0; step+1 < len(schedule); step += 2 {
			who, when := uint64(schedule[step]), time.Duration(schedule[step+1])
			clk = clk.Add(when * when * 20 * time.Microsecond) // 200 ms, one token, at 100
			id := inShard((who>>1)*0x9E3779B97F4A7C15, who&1)
			if g, w := got.Allow(id), want.Allow(id); g != w {
				t.Fatalf("step %d, identity %#x: Allow = %v, reference %v", step/2, id, g, w)
			}
			shard := (id ^ id>>32) % limiterShards
			if err := got.shards[shard].check(); err != nil {
				t.Fatalf("step %d, identity %#x: %v", step/2, id, err)
			}
			if err := sameUnrefilled(got, want, shard); err != nil {
				t.Fatalf("step %d, identity %#x: %v", step/2, id, err)
			}
		}
	})
}

// check verifies the table invariant: every bucket is reachable from
// its home slot without crossing an empty slot or its own key, and n
// counts the occupied slots.
func (s *limiterShard) check() error {
	mask := uint64(len(s.slots) - 1)
	n := 0
	for i, b := range s.slots {
		if b.key == 0 {
			continue
		}
		n++
		for j := s.home(b.key); j != uint64(i); j = (j + 1) & mask {
			if k := s.slots[j].key; k == 0 || k == b.key {
				return fmt.Errorf("the bucket of %#x at slot %d is cut off from its home slot %d at slot %d", b.key, i, s.home(b.key), j)
			}
		}
	}
	if n != s.n {
		return fmt.Errorf("n = %d, but %d slots are occupied", s.n, n)
	}
	return nil
}

// sameUnrefilled requires the buckets of one shard that have not
// refilled to be the same identities, tokens and refill instants in both
// limiters.
func sameUnrefilled(got *Limiter, want *referenceLimiter, shard uint64) error {
	s, now := &got.shards[shard], want.now()
	held := 0
	for id, w := range want.shards[shard] {
		if want.refilled(w, now) {
			continue
		}
		held++
		g, ok := s.lookup(id)
		if !ok || g.tokens != w.tokens || g.last != int64(w.last.Sub(got.epoch)) {
			return fmt.Errorf("identity %#x holds %v (found %v), reference %.17g tokens at %v", id, *g, ok, w.tokens, w.last.Sub(got.epoch))
		}
	}
	if n := got.unrefilled(s); n != held {
		return fmt.Errorf("%d unrefilled buckets, reference %d", n, held)
	}
	return nil
}

// TestLimiterHashIsKeyed: identities are client-chosen, so against a
// public hash multiplier a flood can precompute keys of one shard whose
// home slots share a narrow band — one linear-probing cluster that every
// fresh key walks to its end. The same keys, built against the fixed
// constant, must spread under a limiter's own multipliers; a shard
// forced onto the constant shows the cluster they were built for.
func TestLimiterHashIsKeyed(t *testing.T) {
	const public = 0x9E3779B97F4A7C15
	const keys, slots = 3000, 4096 // 3000 identities double a shard to 4096 slots
	target := limiterShard{mul: public}
	target.alloc(slots)
	rng := rand.New(rand.NewSource(2018))
	flood := make([]uint64, 0, keys)
	for seen := map[uint64]bool{}; len(flood) < keys; {
		if id := inShard(rng.Uint64(), 5); id != 0 && !seen[id] && target.home(id) < 16 {
			seen[id] = true
			flood = append(flood, id)
		}
	}

	// longestProbe floods one limiter and returns the longest probe
	// sequence, home slot to bucket, among the flood's identities.
	longestProbe := func(l *Limiter) int {
		for _, id := range flood {
			l.Allow(id)
		}
		s := &l.shards[5]
		if len(s.slots) != slots {
			t.Fatalf("the flood grew shard 5 to %d slots, want %d", len(s.slots), slots)
		}
		longest := 0
		for _, id := range flood {
			n := 1
			for i := s.home(id); s.slots[i].key != id; i = (i + 1) & (slots - 1) {
				n++
			}
			longest = max(longest, n)
		}
		return longest
	}

	a, b := NewLimiter(5, 4, nil), NewLimiter(5, 4, nil)
	for i := range a.shards {
		if m := a.shards[i].mul; m&1 == 0 || m == public || m == b.shards[i].mul || (i > 0 && m == a.shards[i-1].mul) {
			t.Fatalf("shard %d multiplier %#x is even, public, or shared with another shard or limiter", i, m)
		}
	}
	if n := longestProbe(a); n > keys/4 {
		t.Errorf("under the limiter's multiplier the flood still probes %d slots for one key", n)
	}
	fixed := NewLimiter(5, 4, nil)
	fixed.shards[5].mul = public
	if n := longestProbe(fixed); n < keys/2 {
		t.Fatalf("the flood built against the public multiplier probes only %d slots under it; the test no longer builds a cluster", n)
	}
}

// FuzzHandoutQuery holds parseQuery to its oracle: for any RawQuery the
// handlers accept, the three parameters are what r.URL.Query().Get
// reports — first occurrence wins, bare keys are empty, an undecodable
// or ';'-separated pair is dropped — and only an over-long query is
// refused.
func FuzzHandoutQuery(f *testing.F) {
	for _, raw := range []string{
		"",
		"dist=https&id=alice",
		"id=a&id=b&dist=email&dist=social",
		"id=&id=x",
		"id&dist&attempt",
		"&&id=x&&",
		"=x&id==y=z",
		"id=%41&dist=%",
		"id=a+b&attempt=+1",
		"id=a;dist=email&attempt=2",
		"attempt=2&idx=1&xid=2&id=last",
		"id=" + strings.Repeat("x", maxQueryLen),
	} {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		r := &http.Request{URL: &url.URL{RawQuery: raw}}
		got, ok := parseQuery(r)
		if !ok {
			if len(raw) <= maxQueryLen {
				t.Fatalf("parseQuery refused a %d-byte query", len(raw))
			}
			return
		}
		if len(raw) > maxQueryLen {
			t.Fatalf("parseQuery accepted a %d-byte query", len(raw))
		}
		v := r.URL.Query()
		if want := (query{dist: v.Get("dist"), id: v.Get("id"), attempt: v.Get("attempt")}); got != want {
			t.Fatalf("parseQuery(%q) = %+v, net/url says %+v", raw, got, want)
		}
	})
}
