package service

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/netip"
	"runtime/debug"
	"strconv"
	"time"

	"github.com/i2pstudy/i2pstudy/internal/distrib"
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

// Handler returns the daemon's route table.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/handout", s.handleHandout)
	mux.HandleFunc("/"+reseed.SeedFileName, s.handleSeeds)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
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
// response has been written.
func (s *Service) admit(w http.ResponseWriter, r *http.Request, id string) (uint64, int) {
	key := distrib.IdentityKey(id)
	if a := clientAddr(r); a.IsValid() && s.blacklist.Blocked(a) {
		http.Error(w, "address blacklisted", http.StatusForbidden)
		return key, http.StatusForbidden
	}
	if !s.limiter.Allow(key) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "rate limit exceeded", http.StatusTooManyRequests)
		return key, http.StatusTooManyRequests
	}
	return key, 0
}

func (s *Service) handleHandout(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	dist := r.URL.Query().Get("dist")
	if dist == "" {
		dist = "https"
	}
	code := http.StatusOK
	defer func() {
		// dist is client input: a refused request is labelled with it only
		// when it names a real distributor, so garbage values cannot mint
		// metric series. Granted requests were validated by Serve.
		if code != http.StatusOK {
			if _, ok := s.api.Distributor(dist); !ok {
				dist = "unknown"
			}
		}
		s.metrics.ObserveRequest(dist, code, time.Since(start).Nanoseconds())
	}()

	if r.Method != http.MethodGet {
		code = http.StatusMethodNotAllowed
		http.Error(w, "method not allowed", code)
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		code = http.StatusBadRequest
		http.Error(w, "missing id", code)
		return
	}
	attempt := 0
	if v := r.URL.Query().Get("attempt"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			code = http.StatusBadRequest
			http.Error(w, "bad attempt", code)
			return
		}
		attempt = n
	}
	key, denied := s.admit(w, r, id)
	if denied != 0 {
		code = denied
		return
	}
	h, err := s.Serve(distrib.Request{Dist: dist, ID: key, Attempt: attempt})
	if err != nil {
		code = http.StatusNotFound
		http.Error(w, err.Error(), code)
		return
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
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if err := enc.Encode(resp); err != nil {
		code = http.StatusInternalServerError
	}
}

// handleSeeds serves the manual-reseed frontend's pre-built signed
// bundle for the requesting identity: the identity's grant resolves to a
// partition slot, and the slot indexes the atomically swapped bundle
// cache — no per-request encoding.
func (s *Service) handleSeeds(w http.ResponseWriter, r *http.Request) {
	const dist = "manual-reseed"
	start := time.Now()
	code := http.StatusOK
	defer func() {
		s.metrics.ObserveRequest(dist, code, time.Since(start).Nanoseconds())
	}()

	if r.Method != http.MethodGet {
		code = http.StatusMethodNotAllowed
		http.Error(w, "method not allowed", code)
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		code = http.StatusBadRequest
		http.Error(w, "missing id", code)
		return
	}
	key, denied := s.admit(w, r, id)
	if denied != 0 {
		code = denied
		return
	}
	gkey, granted, err := s.api.Key(distrib.Request{Dist: dist, ID: key, Day: s.cfg.Day})
	if err != nil || !granted {
		code = http.StatusNotFound
		http.Error(w, "no manual-reseed frontend", code)
		return
	}
	part := s.backend.Partition(dist)
	data := s.bundles.Load().Bundle(part.SlotOf(gkey))
	if len(data) == 0 {
		code = http.StatusServiceUnavailable
		http.Error(w, "no bundle available", code)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprint(w, s.metrics.Render())
}
