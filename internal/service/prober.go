package service

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"time"

	"github.com/i2pstudy/i2pstudy/internal/distrib"
)

// This file is the kraken-style reachability loop: the daemon
// periodically probes every bridge in the pool, tracks per-bridge
// consecutive-failure streaks with exponential backoff between retries,
// and retires a bridge once its streak reaches FailLimit. Retirement
// filters the bridge out of responses without rebuilding the ring, so
// survivors keep their hashring assignment (the package invariant).

// ProbeFunc checks one bridge's reachability; nil error means up.
type ProbeFunc func(r distrib.Resource) error

// RunProber runs the probe loop until ctx is cancelled, probing the
// whole pool every ProbeInterval. It always returns nil on graceful
// shutdown — ctx cancellation is the stop signal, not an error.
func (s *Service) RunProber(ctx context.Context) error {
	ticker := time.NewTicker(s.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C:
			s.ProbeOnce(ctx)
		}
	}
}

// ProbeOnce sweeps the pool once: every live bridge whose backoff has
// elapsed is probed, streaks update, and bridges at FailLimit retire.
// Exported so tests and bench/ can drive the loop deterministically
// without a ticker; like RunProber it owns streaks and nextDue, so calls
// must not overlap.
func (s *Service) ProbeOnce(ctx context.Context) {
	now := s.cfg.Now()
	ep := s.epoch.Load()
	var dead []int
	for _, name := range ep.backend.API().Distributors() {
		part := ep.backend.Partition(name)
		for _, r := range part.Resources() {
			if ctx.Err() != nil {
				return
			}
			if ep.retired[r.Peer] {
				continue
			}
			if due, ok := s.nextDue[r.Peer]; ok && now.Before(due) {
				continue // still backing off from the last failure
			}
			if err, panicked := s.runProbe(r); err != nil {
				// A panicking ProbeFunc is a prober bug, not a dead
				// bridge; it gets its own outcome label so dashboards
				// can tell the two apart, but still counts toward the
				// streak — a probe that cannot complete tells us nothing
				// good about the bridge.
				if panicked {
					s.metrics.ObserveProbe("panic")
				} else {
					s.metrics.ObserveProbe("fail")
				}
				s.streaks[r.Peer]++
				// Exponential backoff: 1x, 2x, 4x ... ProbeInterval per
				// consecutive failure, so a flapping bridge is retried
				// promptly but a dying one stops burning probe budget.
				// The exponent is clamped before shifting: past 2^4 the
				// cap below wins anyway, and a long streak (> 63) would
				// otherwise overflow the shift into a zero or negative
				// backoff, turning a dying bridge into a hot probe loop.
				exp := s.streaks[r.Peer] - 1
				if exp > 4 {
					exp = 4
				}
				backoff := s.cfg.ProbeInterval << exp
				if max := 16 * s.cfg.ProbeInterval; backoff > max {
					backoff = max
				}
				s.nextDue[r.Peer] = now.Add(backoff)
				if s.streaks[r.Peer] >= s.cfg.FailLimit {
					dead = append(dead, r.Peer)
				}
			} else {
				s.metrics.ObserveProbe("ok")
				delete(s.streaks, r.Peer)
				delete(s.nextDue, r.Peer)
			}
		}
	}
	// A retirement that cannot be built publishes nothing: the bridges
	// stay live with their streaks and are retired by the sweep after
	// their backoff. That is not a probe outcome, so it goes to the log.
	if len(dead) > 0 {
		if err := s.retire(dead); err != nil {
			slog.Error("retirement failed, still serving the previous epoch", "err", err, "peers", dead)
		}
	}
	s.publishProberState(now)
}

// ProberPeer is one bridge the prober is backing off from: its
// consecutive-failure streak and when it is next due a probe. A retired
// bridge keeps the entry it retired with.
type ProberPeer struct {
	Peer    int       `json:"peer"`
	Streak  int       `json:"streak"`
	NextDue time.Time `json:"next_due"`
}

// ProberState is the probe loop's state as one completed sweep left it.
type ProberState struct {
	// SweptAt is when the sweep started on the service clock; the zero
	// time means no sweep has completed yet.
	SweptAt time.Time `json:"swept_at"`
	// Peers are the bridges with a failure streak, ascending by peer.
	Peers []ProberPeer `json:"peers"`
	// Retired is the retired set, ascending.
	Retired []int `json:"retired"`
}

// publishProberState copies the loop-owned maps into an immutable
// snapshot and swaps it in, so readers never touch streaks or nextDue.
func (s *Service) publishProberState(sweptAt time.Time) {
	retired := s.epoch.Load().retired
	st := &ProberState{
		SweptAt: sweptAt,
		Peers:   make([]ProberPeer, 0, len(s.streaks)),
		Retired: make([]int, 0, len(retired)),
	}
	for peer, streak := range s.streaks {
		st.Peers = append(st.Peers, ProberPeer{Peer: peer, Streak: streak, NextDue: s.nextDue[peer]})
	}
	slices.SortFunc(st.Peers, func(a, b ProberPeer) int { return a.Peer - b.Peer })
	for peer := range retired {
		st.Retired = append(st.Retired, peer)
	}
	slices.Sort(st.Retired)
	s.proberState.Store(st)
}

// ProberState returns the snapshot the last completed sweep published
// (NewService publishes an empty one). It is shared and immutable:
// callers must not modify it.
func (s *Service) ProberState() *ProberState { return s.proberState.Load() }

// DebugProber serves ProberState as JSON; cmd/i2pdistribd mounts it on
// the -debug-addr mux as /debug/prober, never on the public listener.
func (s *Service) DebugProber(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(s.ProberState()); err != nil {
		http.Error(w, "encode prober state", http.StatusInternalServerError)
	}
}

// runProbe invokes the configured ProbeFunc with a recovery guard: a
// panic becomes an error plus a panicked flag, so one broken probe
// implementation cannot take down the whole loop and the outcome is
// counted under its own label.
func (s *Service) runProbe(r distrib.Resource) (err error, panicked bool) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("service: probe panicked: %v", v)
			panicked = true
		}
	}()
	return s.cfg.Probe(r), false
}
