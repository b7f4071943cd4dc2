package service

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/netip"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/i2pstudy/i2pstudy/internal/distrib"
	"github.com/i2pstudy/i2pstudy/internal/obs"
	"github.com/i2pstudy/i2pstudy/internal/reseed"
)

// This file is the daemon's HTTP surface:
//
//	GET /handout?dist=<name>&id=<identity>[&attempt=N]  moat-style JSON
//	GET /i2pseeds.su3?id=<identity>                     signed seed bundle
//	GET /metrics                                        Prometheus text
//	GET /healthz                                        liveness
//
// Responses are deterministic per identity: the JSON body is a pure
// function of (identity, distributor, day, attempt, retired set), so the
// golden tests can compare bytes across daemon restarts.
//
// A handout costs one pass over the raw query (parseQuery), admission,
// one HandoutAPI.Serve and a few appends (writeHandout): everything
// about a body that does not depend on the requester was encoded once,
// when the epoch was built (preencode).

// BridgeJSON is one bridge in a handout response.
type BridgeJSON struct {
	// Peer is the peer's index in the study network.
	Peer int `json:"peer"`
	// Key is the resource's ring position (decimal string — the value
	// exceeds JavaScript's safe-integer range).
	Key string `json:"key"`
	// Identity is the router's identity hash, I2P base64.
	Identity string `json:"identity"`
	// Version is the published router version.
	Version string `json:"version"`
	// Addr and Port are the first published transport address, omitted
	// for firewalled bridges (introducer-only).
	Addr string `json:"addr,omitempty"`
	Port uint16 `json:"port,omitempty"`
}

// HandoutJSON is the moat-style handout response body.
type HandoutJSON struct {
	Distributor string       `json:"distributor"`
	Day         int          `json:"day"`
	ID          string       `json:"id"`
	Granted     bool         `json:"granted"`
	Bridges     []BridgeJSON `json:"bridges"`
}

// Handler returns the daemon's route table: four exact paths, matched
// as the request names them. Anything else — a trailing slash, another
// case, an uncleaned path such as //handout — is 404.
func (s *Service) Handler() http.Handler { return http.HandlerFunc(s.route) }

func (s *Service) route(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/handout":
		s.handleHandout(w, r)
	case "/" + reseed.SeedFileName:
		s.handleSeeds(w, r)
	case "/metrics":
		s.handleMetrics(w, r)
	case "/healthz":
		s.handleHealthz(w, r)
	default:
		http.NotFound(w, r)
	}
}

// HealthJSON is the /healthz response body: liveness plus enough build
// identity to tell which binary answered.
type HealthJSON struct {
	Status        string  `json:"status"`
	GoVersion     string  `json:"go_version"`
	Revision      string  `json:"revision,omitempty"`
	Modified      bool    `json:"modified,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// buildIdentity reads the binary's Go version and VCS revision from the
// embedded build info; fields stay empty when the binary was built
// outside a module or checkout.
func buildIdentity() (goVersion, revision string, modified bool) {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "", "", false
	}
	goVersion = bi.GoVersion
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			revision = kv.Value
		case "vcs.modified":
			modified = kv.Value == "true"
		}
	}
	return goVersion, revision, modified
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	goVersion, revision, modified := buildIdentity()
	resp := HealthJSON{
		Status:        "ok",
		GoVersion:     goVersion,
		Revision:      revision,
		Modified:      modified,
		UptimeSeconds: s.cfg.Now().Sub(s.started).Seconds(),
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		http.Error(w, "encode health", http.StatusInternalServerError)
	}
}

// clientAddr parses the request's client IP for the blacklist check.
func clientAddr(r *http.Request) netip.Addr {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	a, _ := netip.ParseAddr(host)
	return a
}

// admit runs the shared admission checks — blacklist then rate limit —
// and reports the request's identity key. A non-zero status means the
// response has been written. While the blacklist is empty the client
// address is never parsed.
func (s *Service) admit(w http.ResponseWriter, r *http.Request, id string) (uint64, int) {
	key := distrib.IdentityKey(id)
	if s.blacklist.Len() > 0 {
		if a := clientAddr(r); a.IsValid() && s.blacklist.has(a) {
			http.Error(w, "address blacklisted", http.StatusForbidden)
			return key, http.StatusForbidden
		}
	}
	if !s.limiter.Allow(key) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "rate limit exceeded", http.StatusTooManyRequests)
		return key, http.StatusTooManyRequests
	}
	return key, 0
}

// maxQueryLen bounds the client input a handler parses: the longest
// legitimate query is three short parameters, so anything past 1 KiB is
// refused with 414 before a byte of it is looked at. It also bounds how
// far one request can grow a pooled body buffer.
const maxQueryLen = 1 << 10

// query is the parameters the handlers take, as url.Values.Get would
// report them ("" when absent).
type query struct {
	dist, id, attempt string
}

// parseQuery reads the request's parameters in one pass over RawQuery:
// split on '&', cut on '=', the first occurrence of a key wins — what
// url.ParseQuery does when nothing needs decoding, with the values left
// as substrings of RawQuery instead of copied into a map. A query
// carrying '%', '+' or ';' goes through net/url itself, so decoding
// (and the rejected ';' separator) is net/url's by construction
// (FuzzHandoutQuery). ok is false for a query over maxQueryLen.
func parseQuery(r *http.Request) (q query, ok bool) {
	raw := r.URL.RawQuery
	if len(raw) > maxQueryLen {
		return query{}, false
	}
	if needsURLDecode(raw) {
		v := r.URL.Query()
		return query{dist: v.Get("dist"), id: v.Get("id"), attempt: v.Get("attempt")}, true
	}
	var haveDist, haveID, haveAttempt bool
	for raw != "" {
		var kv string
		kv, raw, _ = strings.Cut(raw, "&")
		key, val, _ := strings.Cut(kv, "=")
		switch key {
		case "dist":
			if !haveDist {
				q.dist, haveDist = val, true
			}
		case "id":
			if !haveID {
				q.id, haveID = val, true
			}
		case "attempt":
			if !haveAttempt {
				q.attempt, haveAttempt = val, true
			}
		}
	}
	return q, true
}

// needsURLDecode reports whether raw holds a '%', '+' or ';' — what
// strings.ContainsAny(raw, "%+;") asks, in one byte loop instead of an
// ASCII set rebuilt per request.
func needsURLDecode(raw string) bool {
	for i := 0; i < len(raw); i++ {
		switch raw[i] {
		case '%', '+', ';':
			return true
		}
	}
	return false
}

// refuse answers a request that failed a check before admission and
// reports the status for the caller's metrics.
func refuse(w http.ResponseWriter, msg string, code int) int {
	if code == http.StatusMethodNotAllowed {
		w.Header().Set("Allow", http.MethodGet) // RFC 9110 §15.5.6
	}
	http.Error(w, msg, code)
	return code
}

// frontend is what a handout needs of its distributor, resolved once
// per epoch: the response body up to the identity and the
// granted-request counter.
type frontend struct {
	head []byte       // {"distributor":"<name>","day":<day>,"id":
	ok   *obs.Counter // i2pdistribd_requests_total{dist="<name>",code="200"}
}

// bridgeJSON is one resource as a handout carries it.
func bridgeJSON(res distrib.Resource) BridgeJSON {
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
	return b
}

// preencode encodes everything about a handout body that does not
// depend on the requester: each frontend's head and each resource's
// BridgeJSON, once. Both are pure functions of the epoch's day and
// frozen backend — retirement changes which resources serve returns,
// never their bytes — so a successor epoch shares them.
func (ep *epoch) preencode(m *Metrics) error {
	ep.frontends = make(map[string]*frontend)
	ep.fragments = make(map[int][]byte, ep.backend.PoolSize())
	for _, name := range ep.backend.API().Distributors() {
		head := appendJSONString([]byte(`{"distributor":`), name)
		head = strconv.AppendInt(append(head, `,"day":`...), int64(ep.day), 10)
		ep.frontends[name] = &frontend{
			head: append(head, `,"id":`...),
			ok:   m.requestSeries(name, http.StatusOK),
		}
		for _, res := range ep.backend.Partition(name).Resources() {
			frag, err := json.Marshal(bridgeJSON(res))
			if err != nil {
				return fmt.Errorf("service: encode bridge %d: %w", res.Peer, err)
			}
			ep.fragments[res.Peer] = frag
		}
	}
	return nil
}

// appendJSONString appends s as encoding/json writes a string (HTML
// escaping on). Printable ASCII outside the escaped set is the encoder's
// identity case and is copied; anything else goes through the encoder.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			enc, _ := json.Marshal(s) // a string always encodes
			return append(dst, enc...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// jsonContentType is shared by every handout response; handlers assign
// it and nothing appends to it.
var jsonContentType = []string{"application/json"}

// bodyPool recycles handout body buffers. A body is written before its
// buffer returns to the pool, and http.ResponseWriter.Write does not
// retain what it is handed.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// writeHandout assembles the moat-style body — byte for byte what
// json.NewEncoder(w).Encode(HandoutJSON{...}) writes (trailing newline,
// "bridges":[] when empty; referenceHandoutBody in the tests) — from
// the frontend's head, the identity and the pre-encoded fragments. It
// skips the epoch's retired bridges as it appends, so the body carries
// the order-preserving subsequence Service.Serve returns without copying
// the handout.
func (ep *epoch) writeHandout(w http.ResponseWriter, fe *frontend, id string, h distrib.Handout) error {
	buf := bodyPool.Get().(*[]byte)
	b := append((*buf)[:0], fe.head...)
	b = appendJSONString(b, id)
	b = append(b, `,"granted":`...)
	b = strconv.AppendBool(b, h.Granted)
	b = append(b, `,"bridges":[`...)
	first := true
	for _, res := range h.Resources {
		if ep.retired[res.Peer] {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = append(b, ep.fragments[res.Peer]...)
	}
	b = append(b, "]}\n"...)
	w.Header()["Content-Type"] = jsonContentType
	_, err := w.Write(b)
	*buf = b
	bodyPool.Put(buf)
	return err
}

// observe counts one answered request: a granted one on its frontend's
// pre-resolved series, any other under label.
func (s *Service) observe(fe *frontend, label string, code int, start time.Time) {
	nanos := time.Since(start).Nanoseconds()
	if fe != nil && code == http.StatusOK {
		fe.ok.Inc()
		s.metrics.observeLatency(nanos)
		return
	}
	s.metrics.ObserveRequest(label, code, nanos)
}

func (s *Service) handleHandout(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	q, ok := parseQuery(r)
	if !ok {
		// Nothing of the query was read, its dist included.
		s.observe(nil, "unknown", refuse(w, "query too long", http.StatusRequestURITooLong), start)
		return
	}
	dist := q.dist
	if dist == "" {
		dist = "https"
	}
	// One load: frontend, grant, retired filter and fragments all come
	// from the same epoch.
	ep := s.epoch.Load()
	fe := ep.frontends[dist]
	code := http.StatusOK
	defer func() {
		// dist is client input: a request is labelled with it only when
		// it names a real distributor, so garbage values cannot mint
		// metric series.
		label := dist
		if fe == nil {
			label = "unknown"
		}
		s.observe(fe, label, code, start)
	}()

	if r.Method != http.MethodGet {
		code = refuse(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if q.id == "" {
		code = refuse(w, "missing id", http.StatusBadRequest)
		return
	}
	attempt := 0
	if q.attempt != "" {
		n, err := strconv.Atoi(q.attempt)
		if err != nil || n < 0 {
			code = refuse(w, "bad attempt", http.StatusBadRequest)
			return
		}
		attempt = n
	}
	key, denied := s.admit(w, r, q.id)
	if denied != 0 {
		code = denied
		return
	}
	h, err := ep.backend.API().Serve(distrib.Request{Dist: dist, ID: key, Day: ep.day, Attempt: attempt})
	if err != nil {
		code = refuse(w, err.Error(), http.StatusNotFound)
		return
	}
	if err := ep.writeHandout(w, fe, q.id, h); err != nil {
		code = http.StatusInternalServerError
	}
}

// handleSeeds serves the manual-reseed frontend's pre-built signed
// bundle for the requesting identity: the identity's handout key
// resolves to a partition slot, and the slot indexes the bundle set of
// the same epoch — no per-request encoding.
func (s *Service) handleSeeds(w http.ResponseWriter, r *http.Request) {
	const dist = "manual-reseed"
	start := time.Now()
	ep := s.epoch.Load()
	fe := ep.frontends[dist]
	code := http.StatusOK
	defer func() { s.observe(fe, dist, code, start) }()

	q, ok := parseQuery(r)
	if !ok {
		code = refuse(w, "query too long", http.StatusRequestURITooLong)
		return
	}
	if r.Method != http.MethodGet {
		code = refuse(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if q.id == "" {
		code = refuse(w, "missing id", http.StatusBadRequest)
		return
	}
	key, denied := s.admit(w, r, q.id)
	if denied != 0 {
		code = denied
		return
	}
	h, err := ep.backend.API().Serve(distrib.Request{Dist: dist, ID: key, Day: ep.day})
	if err != nil || !h.Granted {
		code = refuse(w, "no manual-reseed frontend", http.StatusNotFound)
		return
	}
	data := ep.bundles.Bundle(ep.backend.Partition(dist).SlotOf(h.Key))
	if len(data) == 0 {
		code = refuse(w, "no bundle available", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Counted here, per scrape, so the request path keeps no gauge.
	s.metrics.limiterBuckets.Set(int64(s.limiter.buckets()))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprint(w, s.metrics.Render())
}
