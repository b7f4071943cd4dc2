package service

import (
	"strconv"

	"github.com/i2pstudy/i2pstudy/internal/obs"
)

// This file is the /metrics exposition. The daemon's instrument set
// rides on internal/obs — the same zero-dependency registry the batch
// engines count into — so a shared registry (Config.Registry) makes one
// /metrics page carry the handout series next to the engine families
// (i2p_engine_*, i2p_cache_*).

// latencyBuckets are the handout-latency histogram upper bounds in
// seconds, spanning sub-microsecond in-process serves to second-scale
// stalls.
var latencyBuckets = []float64{
	1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1, 5,
}

// probeOutcomes are the probe result labels, pre-created so every
// outcome renders (at zero) from the first scrape: "panic" is a probe
// that panicked rather than returned an error — a prober bug, not a
// dead bridge — and gets its own label instead of masquerading as fail.
var probeOutcomes = []string{"ok", "fail", "panic", "retired"}

// Metrics is the daemon's instrument set. All methods are safe for
// concurrent use; the hot-path instruments (request counters, the
// latency histogram) are lock-free after a series' first use.
type Metrics struct {
	reg *obs.Registry

	// requests counts handout requests by (distributor, status code).
	requests *obs.CounterVec
	// poolSize gauges the live (unretired) partition size per distributor.
	poolSize *obs.GaugeVec
	// probe counts probe outcomes.
	probe *obs.CounterVec
	// latency is the handout latency histogram, in seconds.
	latency *obs.Histogram
}

// NewMetricsOn builds the instrument set on the given registry (nil: a
// fresh private one), so a caller that also obs.Enable's the registry
// gets the engine counter families on the same /metrics page.
func NewMetricsOn(reg *obs.Registry) *Metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &Metrics{
		reg: reg,
		requests: reg.CounterVec("i2pdistribd_requests_total",
			"Handout requests by distributor and status code.", "dist", "code"),
		poolSize: reg.GaugeVec("i2pdistribd_pool_size",
			"Live (unretired) partition size per distributor.", "dist"),
		probe: reg.CounterVec("i2pdistribd_probe_total",
			"Reachability probe outcomes.", "outcome"),
		latency: reg.Histogram("i2pdistribd_handout_latency_seconds",
			"Handout request latency.", latencyBuckets),
	}
	for _, o := range probeOutcomes {
		m.probe.With(o)
	}
	return m
}

// ObserveRequest records one handout request's distributor, status code
// and latency.
func (m *Metrics) ObserveRequest(dist string, code int, nanos int64) {
	m.requestSeries(dist, code).Inc()
	m.observeLatency(nanos)
}

// requestSeries resolves one (distributor, status code) request counter.
// The handlers resolve each frontend's 200 series once at boot and count
// granted requests on it directly.
func (m *Metrics) requestSeries(dist string, code int) *obs.Counter {
	return m.requests.With(dist, strconv.Itoa(code))
}

func (m *Metrics) observeLatency(nanos int64) {
	m.latency.Observe(float64(nanos) / 1e9)
}

// SetPoolSize gauges a distributor's live partition size.
func (m *Metrics) SetPoolSize(dist string, n int) {
	m.poolSize.With(dist).Set(int64(n))
}

// ObserveProbe records one probe outcome ("ok", "fail", "panic") or a
// retirement.
func (m *Metrics) ObserveProbe(outcome string) {
	m.probe.With(outcome).Inc()
}

// Render writes the registry in the Prometheus text exposition format —
// every family on the backing registry, so a shared registry surfaces
// the engine counters here too.
func (m *Metrics) Render() string { return m.reg.RenderText() }
