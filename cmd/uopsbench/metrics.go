package main

import (
	"encoding/json"
	"math"
	"sort"
)

// Better-directions of a metric.
const (
	lower  = "lower"
	higher = "higher"
)

// e2eMetric is an end-to-end metric: what a user of uopsinfo, uopsd or a
// fleet sees. Every workload reports every one of them, so each is defined
// per workload (see the README's metric table). Bound is the share of the
// parent commit's median by which the metric may worsen before a change
// counts as a regression.
type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// layerMetric is a per-layer metric, reported only by traced runs.
type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd lists the end-to-end metrics, the ones regressions are judged
// by. Their times are CPU times scaled to a reference host speed by the host
// gauge (host.go): on the shared 2-vCPU VMs the benchmark runs on, the
// hypervisor steals up to 40 % of the CPU for minutes at a time, and the
// CPU time of one operation drifts by 20-40 % as other tenants come and go,
// so wall time, and even plain CPU time, measured the host as much as the
// program (README, "Why normalized CPU time"). Normalized, the CPU time per
// operation still spreads 4-11 % between runs on the workloads that keep
// both vCPUs busy. Peak RSS depends on where the garbage collector's cycles
// fall: isa-cold's spreads 5-15 % between runs, so its bound is the largest
// allowed. The accuracy metrics are deterministic: any drop beyond rounding
// is a change of the model, not noise.
var endToEnd = []e2eMetric{
	{"setup_s", "s", lower, 0.25},
	{"norm_cpu_ms_per_op", "ms", lower, 0.2},
	{"max_rss_mb", "MB", lower, 0.25},
	{"ports_exact_pct", "%", higher, 0.001},
	{"uops_exact_pct", "%", higher, 0.001},
}

// ungated lists what a run measures besides: the plain CPU times, the
// reference round the gauge timed, and the wall-clock numbers a user waits
// for. They are printed with every run and summarized by -runs, but are not
// in BENCHMARK.json, so no change is judged by them.
var ungated = []layerMetric{
	{"cpu_setup_s", "s", lower},
	{"cpu_ms_per_op", "ms", lower},
	{"ref_round_ms", "ms", lower},
	{"wall_setup_s", "s", lower},
	{"wall_ops_per_s", "1/s", higher},
	{"wall_latency_p50_ms", "ms", lower},
	{"wall_latency_p90_ms", "ms", lower},
}

// servedClasses are the request classes of the serve-open mix.
var servedClasses = []string{"variant", "subset", "quick", "full"}

// corePhases are the characterization phases the serial replay times.
var corePhases = []string{"blocking", "uops", "latency", "ports", "throughput"}

// perLayer lists the per-layer metrics, bottom layer first.
var perLayer = func() []layerMetric {
	m := []layerMetric{
		{"pipesim.run_calls", "count", lower},
		{"pipesim.sim_cycles", "count", lower},
		{"pipesim.sim_uops", "count", lower},
		{"pipesim.busy_s", "s", lower},
		{"pipesim.ns_per_sim_uop", "ns", lower},
		{"measure.pool_forked", "count", lower},
		{"measure.pool_reused", "count", higher},
		{"measure.seq_built", "count", lower},
		{"measure.seq_reused", "count", higher},
	}
	for _, ph := range corePhases {
		m = append(m,
			layerMetric{"core." + ph + ".run_calls", "count", lower},
			layerMetric{"core." + ph + ".busy_s", "s", lower},
			layerMetric{"core." + ph + ".self_s", "s", lower})
	}
	m = append(m,
		layerMetric{"engine.runs", "count", lower},
		layerMetric{"engine.coalesced_waiters", "count", higher},
		layerMetric{"engine.result_hits", "count", higher},
		layerMetric{"engine.result_misses", "count", lower},
		layerMetric{"engine.result_hit_ratio", "ratio", higher},
		layerMetric{"engine.variant_hits", "count", higher},
		layerMetric{"engine.variants_measured", "count", lower},
		layerMetric{"engine.call_p50_ms", "ms", lower},
		layerMetric{"engine.call_p99_ms", "ms", lower},
		layerMetric{"store.read_ops", "count", lower},
		layerMetric{"store.read_bytes", "bytes", lower},
		layerMetric{"store.read_s", "s", lower},
		layerMetric{"store.write_ops", "count", lower},
		layerMetric{"store.write_bytes", "bytes", lower},
		layerMetric{"store.write_s", "s", lower},
		layerMetric{"store.fsync_ops", "count", lower},
		layerMetric{"store.fsync_s", "s", lower},
		layerMetric{"store.meta_ops", "count", lower},
		layerMetric{"store.meta_s", "s", lower},
		layerMetric{"store.compactions", "count", lower},
		layerMetric{"store.corrupt", "count", lower},
		layerMetric{"store.disk_mb", "MB", lower},
	)
	for _, c := range servedClasses {
		m = append(m,
			layerMetric{"service." + c + ".handler_p50_ms", "ms", lower},
			layerMetric{"service." + c + ".handler_p99_ms", "ms", lower})
	}
	m = append(m,
		layerMetric{"service.transport_p50_ms", "ms", lower},
		layerMetric{"service.bytes_out", "bytes", lower},
		layerMetric{"service.gen_lag_p99_ms", "ms", lower},
		layerMetric{"service.store_share", "ratio", lower},
		layerMetric{"xmlout.render_s", "s", lower},
		layerMetric{"fleet.run_calls", "count", lower},
		layerMetric{"fleet.run_wait_s", "s", lower},
		layerMetric{"fleet.batches", "count", lower},
		layerMetric{"fleet.seqs", "count", lower},
		layerMetric{"fleet.seqs_per_batch", "ratio", higher},
		layerMetric{"fleet.deduped", "count", higher},
		layerMetric{"fleet.rtt_p50_us", "us", lower},
		layerMetric{"fleet.worker_handler_p50_us", "us", lower},
		layerMetric{"fleet.wire_overhead_s", "s", lower},
		layerMetric{"fleet.req_bytes", "bytes", lower},
		layerMetric{"fleet.resp_bytes", "bytes", lower},
		layerMetric{"fleet.worker_pipesim_busy_s", "s", lower},
		layerMetric{"fleet.retries", "count", lower},
		layerMetric{"fleet.hedges", "count", lower},
	)
	return m
}()

// exactMetrics are the per-layer counts that come from the serial replay and
// must repeat exactly between traced runs of one seed.
var exactMetrics = []string{
	"pipesim.run_calls", "pipesim.sim_cycles", "pipesim.sim_uops", "fleet.run_calls",
	"core.blocking.run_calls", "core.uops.run_calls", "core.latency.run_calls",
	"core.ports.run_calls", "core.throughput.run_calls",
}

// runSeconds is how long one run measures when -seconds is not given.
const runSeconds = 20

// manifest is the BENCHMARK.json document.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []e2eMetric   `json:"end_to_end"`
	PerLayer   []layerMetric `json:"per_layer"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// manifestJSON renders BENCHMARK.json from the definitions in this package,
// so the file and the code cannot disagree (a test pins the checked-in copy).
func manifestJSON() ([]byte, error) {
	m := manifest{
		Command:    []string{"bash", "cmd/uopsbench/run.sh"},
		Paths:      []string{"cmd/uopsbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadDoc{w.name, w.why})
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// unitOf returns a metric's unit.
func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, list := range [][]layerMetric{ungated, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs, or 0
// for no samples. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), which is
// how run-to-run spread is judged. Fewer than two samples give the sample
// itself for both.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
