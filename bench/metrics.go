package main

import (
	"slices"
	"strings"
)

// metric is one named number the benchmark prints. BENCHMARK.json lists
// the same names, units, directions and bounds; the smoke test keeps the
// two in step.
type metric struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before -compare calls it worse.
	Bound float64
	// On names the workloads that measure the metric (space separated).
	// A per-layer metric reads 0 on the others: their traced pass makes
	// no call into that layer.
	On string
}

// measuredOn reports whether the named workload measures m.
func measuredOn(m metric, workload string) bool {
	return slices.Contains(strings.Fields(m.On), workload)
}

const (
	pair    = "handout handout-mix"
	every   = "census blocking durable handout handout-mix"
	durable = "durable"
)

// endToEnd are the metrics every workload reports with the recorder
// off, as medians over the timed iterations. The bounds are three times
// the spread ten runs of one commit showed on this container, or the
// contract's ceiling of a quarter where that is less (README.md).
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25, every},
	{"wall_s", "s", "lower", 0.25, every},
	{"cpu_s", "s", "lower", 0.25, every},
	{"alloc_mb", "MB", "lower", 0.06, every},
	{"peak_rss_mb", "MB", "lower", 0.20, every},
}

// ownEndToEnd are end-to-end metrics only some workloads have. The
// contract's --trace 0 line must carry every metric on every workload,
// so these travel with the per-layer metrics instead (taken from the
// untraced iteration of the traced run); the full report prints them
// with the end-to-end ones and -compare holds them to these bounds.
var ownEndToEnd = []metric{
	{"write_s", "s", "lower", 0.25, durable},
	{"resume_s", "s", "lower", 0.25, durable},
	{"rps", "req/s", "higher", 0.25, pair},
	{"p50_us", "us", "lower", 0.25, pair},
	{"p99_us", "us", "lower", 0.25, pair},
}

// allEndToEnd is what a full report prints end to end.
func allEndToEnd() []metric { return append(append([]metric(nil), endToEnd...), ownEndToEnd...) }

// perLayer are the metrics of the traced pass. README.md says which
// end-to-end metric each should move, and on which workload.
var perLayer = append(append([]metric(nil), ownEndToEnd...), []metric{
	{Name: "bench.trace_overhead", Unit: "ratio", Better: "lower", On: every},

	{Name: "sim.build_s", Unit: "s", Better: "lower", On: "census"},
	{Name: "sim.observe_s", Unit: "s", Better: "lower", On: "census"},
	{Name: "sim.observe_calls", Unit: "count", Better: "lower", On: "census"},
	{Name: "sim.collect_s", Unit: "s", Better: "lower", On: "census"},
	{Name: "sim.collect_alloc_mb", Unit: "MB", Better: "lower", On: "census"},
	{Name: "sim.records", Unit: "count", Better: "lower", On: "census"},
	{Name: "measure.campaign_serial_s", Unit: "s", Better: "lower", On: "census"},
	{Name: "measure.campaign_auto_s", Unit: "s", Better: "lower", On: "census"},
	{Name: "measure.campaign_speedup", Unit: "ratio", Better: "higher", On: "census"},
	{Name: "measure.merge_fold_s", Unit: "s", Better: "lower", On: "census"},
	{Name: "measure.records_kept", Unit: "count", Better: "higher", On: "census"},
	{Name: "measure.keep_ratio", Unit: "ratio", Better: "higher", On: "census"},
	{Name: "measure.peak_units", Unit: "count", Better: "lower", On: "census"},
	{Name: "measure.units_evicted", Unit: "count", Better: "lower", On: "census"},
	{Name: "measure.analyses_s", Unit: "s", Better: "lower", On: "census"},
	{Name: "core.render_s", Unit: "s", Better: "lower", On: "census"},
	{Name: "core.render_bytes", Unit: "count", Better: "lower", On: "census"},

	{Name: "censor.index_build_s", Unit: "s", Better: "lower", On: "blocking"},
	{Name: "censor.index_addrs", Unit: "count", Better: "lower", On: "blocking"},
	{Name: "censor.figure13_serial_s", Unit: "s", Better: "lower", On: "blocking"},
	{Name: "censor.figure13_auto_s", Unit: "s", Better: "lower", On: "blocking"},
	{Name: "censor.figure13_speedup", Unit: "ratio", Better: "higher", On: "blocking"},
	{Name: "censor.sweep_capture_s", Unit: "s", Better: "lower", On: "blocking"},
	{Name: "censor.sweep_rolling_s", Unit: "s", Better: "lower", On: "blocking"},
	{Name: "censor.sweep_scratch_s", Unit: "s", Better: "lower", On: "blocking"},
	{Name: "censor.rolling_speedup", Unit: "ratio", Better: "higher", On: "blocking"},
	{Name: "distrib.sweep_serial_s", Unit: "s", Better: "lower", On: "blocking"},
	{Name: "distrib.sweep_auto_s", Unit: "s", Better: "lower", On: "blocking"},
	{Name: "distrib.trustsweep_serial_s", Unit: "s", Better: "lower", On: "blocking"},
	{Name: "distrib.trustsweep_auto_s", Unit: "s", Better: "lower", On: "blocking"},
	{Name: "obs.engine_tasks", Unit: "count", Better: "lower", On: "blocking"},
	{Name: "obs.engine_steals", Unit: "count", Better: "higher", On: "blocking"},
	{Name: "obs.engine_rows_planned", Unit: "count", Better: "lower", On: "blocking"},
	{Name: "obs.engine_row_splits", Unit: "count", Better: "higher", On: "blocking"},
	{Name: "obs.engine_row_seam_cost", Unit: "count", Better: "lower", On: "blocking"},
	{Name: "obs.cache_hits", Unit: "count", Better: "higher", On: "blocking"},
	{Name: "obs.cache_misses", Unit: "count", Better: "lower", On: "blocking"},
	{Name: "obs.cache_evictions", Unit: "count", Better: "lower", On: "blocking"},
	{Name: "obs.windowcounter_pool", Unit: "count", Better: "lower", On: "blocking"},
	{Name: "core.exp.bridge-distribution_s", Unit: "s", Better: "lower", On: "blocking"},
	{Name: "core.exp.bridge-strategies_s", Unit: "s", Better: "lower", On: "blocking"},
	{Name: "core.exp.distribution-enumeration_s", Unit: "s", Better: "lower", On: "blocking"},
	{Name: "core.exp.dpi-fingerprinting_s", Unit: "s", Better: "lower", On: "blocking"},
	{Name: "core.exp.eclipse-attack_s", Unit: "s", Better: "lower", On: "blocking"},
	{Name: "core.exp.figure-13_s", Unit: "s", Better: "lower", On: "blocking"},
	{Name: "core.exp.figure-14_s", Unit: "s", Better: "lower", On: "blocking"},
	{Name: "core.exp.port-blocking_s", Unit: "s", Better: "lower", On: "blocking"},
	{Name: "core.exp.reseed-blocking_s", Unit: "s", Better: "lower", On: "blocking"},
	{Name: "core.exp.trust-distribution_s", Unit: "s", Better: "lower", On: "blocking"},

	{Name: "checkpoint.save_s", Unit: "s", Better: "lower", On: durable},
	{Name: "checkpoint.load_s", Unit: "s", Better: "lower", On: durable},
	{Name: "checkpoint.save_mb_per_s", Unit: "MB/s", Better: "higher", On: durable},
	{Name: "checkpoint.store_mb", Unit: "MB", Better: "lower", On: durable},
	{Name: "checkpoint.units", Unit: "count", Better: "lower", On: durable},
	{Name: "checkpoint.files", Unit: "count", Better: "lower", On: durable},
	{Name: "netdb.encode_ns", Unit: "ns", Better: "lower", On: durable},
	{Name: "netdb.decode_ns", Unit: "ns", Better: "lower", On: durable},
	{Name: "measure.durability_overhead_s", Unit: "s", Better: "lower", On: durable},
	{Name: "measure.resume_units_per_s", Unit: "1/s", Better: "higher", On: durable},
	{Name: "measure.snapshot_s", Unit: "s", Better: "lower", On: durable},

	{Name: "service.newservice_s", Unit: "s", Better: "lower", On: pair},
	{Name: "distrib.backend_build_s", Unit: "s", Better: "lower", On: pair},
	{Name: "service.admit_ns", Unit: "ns", Better: "lower", On: "handout"},
	{Name: "distrib.serve_ns", Unit: "ns", Better: "lower", On: "handout"},
	{Name: "service.handler_ns", Unit: "ns", Better: "lower", On: "handout"},
	{Name: "service.handler_allocs", Unit: "count", Better: "lower", On: "handout"},
	{Name: "service.handler_bytes", Unit: "count", Better: "lower", On: "handout"},
	{Name: "service.encode_ns", Unit: "ns", Better: "lower", On: "handout"},
	{Name: "service.rps_1client", Unit: "req/s", Better: "higher", On: pair},
	{Name: "service.parallel_speedup", Unit: "ratio", Better: "higher", On: pair},
	{Name: "service.rps_decay", Unit: "ratio", Better: "higher", On: pair},
	{Name: "service.p9999_us", Unit: "us", Better: "lower", On: pair},
	{Name: "service.seeds_ns", Unit: "ns", Better: "lower", On: "handout-mix"},
	{Name: "service.refused_ratio", Unit: "ratio", Better: "lower", On: "handout-mix"},
	{Name: "service.retire_s", Unit: "s", Better: "lower", On: "handout-mix"},
	{Name: "service.retired", Unit: "count", Better: "lower", On: "handout-mix"},
	{Name: "reseed.bundleset_build_s", Unit: "s", Better: "lower", On: "handout-mix"},
}...)

// workloads names the five workloads in the order a full run takes
// them, each with the reason it exists.
var workloads = []struct{ Name, Why string }{
	{"census", "Section 5 population census at scale 0.2: sim and measure do ~97% of the work, censor/distrib/service none"},
	{"blocking", "Section 6 blocking analysis at paper scale: censor, distrib and eepsite work from index sets, no main campaign"},
	{"durable", "the census campaign with a checkpoint store, written then resumed: the measure layer writing beside reading"},
	{"handout", "1M fresh identities through the daemon's /handout handler: every request misses the limiter table"},
	{"handout-mix", "1M mixed requests: hot identities, refusals, pre-built seed bundles, and bridge retirements beside reads"},
}
