// GET /metrics: the service and engine counters in the Prometheus text
// exposition format. The numbers are the same ones /v1/stats serves as JSON —
// the counters already existed, this is only the format a scrape pipeline
// ingests without adapters.
package service

import (
	"fmt"
	"net/http"

	"uopsinfo/internal/measure"
	"uopsinfo/internal/store"
)

// metric is one exposition entry.
type metric struct {
	name   string
	help   string
	typ    string // "counter" or "gauge"
	labels string // rendered label set incl. braces, or ""
	value  float64
}

// metrics assembles the exposition set from the live counters.
func (s *Service) metrics() []metric {
	c := s.Counters()
	es := s.eng.Stats()
	ms := []metric{
		{name: "uopsd_http_requests_total", typ: "counter",
			help: "HTTP requests received.", value: float64(c.Requests)},
		{name: "uopsd_http_errors_total", typ: "counter",
			help: "HTTP requests answered with a 4xx or 5xx status.", value: float64(c.Errors)},
		{name: "uopsd_http_panics_total", typ: "counter",
			help: "Handler panics caught and contained.", value: float64(c.Panics)},
		{name: "uopsd_http_client_gone_total", typ: "counter",
			help: "Requests whose client went away before a response was written.", value: float64(c.ClientGone)},
		{name: "uopsd_http_rate_limited_total", typ: "counter",
			help: "Requests rejected with 429 by the rate limiter.", value: float64(c.RateLimited)},
		{name: "uopsd_engine_runs_total", typ: "counter",
			help: "Characterization runs executed (not coalesced onto another run).", value: float64(es.Runs)},
		{name: "uopsd_engine_coalesced_waiters_total", typ: "counter",
			help: "Requests that attached to an in-flight identical run.", value: float64(es.CoalescedWaiters)},
		{name: "uopsd_engine_result_hits_total", typ: "counter",
			help: "Store-backed runs answered wholly from stored per-variant records.", value: float64(es.ResultHits)},
		{name: "uopsd_engine_result_misses_total", typ: "counter",
			help: "Store-backed runs that measured at least one variant.", value: float64(es.ResultMisses)},
		{name: "uopsd_engine_blocking_hits_total", typ: "counter",
			help: "Blocking-set store hits.", value: float64(es.BlockingHits)},
		{name: "uopsd_engine_blocking_misses_total", typ: "counter",
			help: "Blocking-set store misses.", value: float64(es.BlockingMisses)},
		{name: "uopsd_engine_variant_hits_total", typ: "counter",
			help: "Per-variant records served from the store.", value: float64(es.VariantHits)},
		{name: "uopsd_engine_variants_measured_total", typ: "counter",
			help: "Instruction variants actually measured.", value: float64(es.VariantsMeasured)},
		{name: "uopsd_engine_store_save_errors_total", typ: "counter",
			help: "Failed persistent-store writes.", value: float64(es.SaveErrors)},
		{name: "uopsd_engine_pool_forked_total", typ: "counter",
			help: "Worker stacks built fresh by the fork pools.", value: float64(es.PoolForked)},
		{name: "uopsd_engine_pool_reused_total", typ: "counter",
			help: "Worker stacks reused warm from the fork pools.", value: float64(es.PoolReused)},
		{name: "uopsd_measure_batches_total", typ: "counter",
			help: "Fleet-worker measurement batches served by POST /v1/measure.", value: float64(c.MeasureBatches)},
		{name: "uopsd_measure_sequences_total", typ: "counter",
			help: "Sequences measured inside /v1/measure batches.", value: float64(c.MeasureSeqs)},
		{name: "uopsd_measure_sequence_errors_total", typ: "counter",
			help: "Sequences inside /v1/measure batches that failed.", value: float64(c.MeasureSeqErrors)},
	}
	if f := es.Fleet; f != nil {
		ms = append(ms,
			metric{name: "uopsd_fleet_batches_total", typ: "counter",
				help: "Measurement batches this process sent to its fleet (including retries).", value: float64(f.Batches)},
			metric{name: "uopsd_fleet_sequences_total", typ: "counter",
				help: "Sequences submitted to the fleet dispatcher.", value: float64(f.Sequences)},
			metric{name: "uopsd_fleet_retries_total", typ: "counter",
				help: "Sequences re-enqueued after a transient fleet batch failure.", value: float64(f.Retries)},
			metric{name: "uopsd_fleet_errors_total", typ: "counter",
				help: "Fleet batches that failed at the transport level.", value: float64(f.Errors)})
		// One series per worker, grouped by metric name: the exposition
		// format wants every sample of a name under one HELP/TYPE block.
		perWorker := []struct {
			name, help, typ string
			value           func(w measure.FleetWorkerStats) float64
		}{
			{"uopsd_fleet_worker_healthy",
				"Whether the fleet worker is in rotation (1) or being probed after failures (0).", "gauge",
				func(w measure.FleetWorkerStats) float64 {
					if w.Healthy {
						return 1
					}
					return 0
				}},
			{"uopsd_fleet_worker_batches_total",
				"Measurement batches sent to the fleet worker.", "counter",
				func(w measure.FleetWorkerStats) float64 { return float64(w.Batches) }},
			{"uopsd_fleet_worker_sequences_total",
				"Sequences sent to the fleet worker.", "counter",
				func(w measure.FleetWorkerStats) float64 { return float64(w.Sequences) }},
			{"uopsd_fleet_worker_errors_total",
				"Transport-level batch failures against the fleet worker.", "counter",
				func(w measure.FleetWorkerStats) float64 { return float64(w.Errors) }},
			{"uopsd_fleet_worker_batch_latency_micros",
				"Mean batch latency against the fleet worker, microseconds.", "gauge",
				func(w measure.FleetWorkerStats) float64 { return float64(w.AvgBatchMicros) }},
		}
		for _, pm := range perWorker {
			for _, w := range f.Workers {
				ms = append(ms, metric{name: pm.name, help: pm.help, typ: pm.typ,
					labels: fmt.Sprintf(`{worker=%q}`, w.URL), value: pm.value(w)})
			}
		}
	}
	if st := es.Store; st != nil {
		degraded := 0.0
		if st.Mode != store.ModeOK {
			degraded = 1
		}
		ms = append(ms,
			metric{name: "uopsd_store_degraded", typ: "gauge",
				help: "Whether the persistent store is in a degraded mode (read-only or compute-only).", value: degraded},
			metric{name: "uopsd_store_degradations_total", typ: "counter",
				help: "Transitions of the persistent store into a degraded mode.", value: float64(st.Degradations)},
			metric{name: "uopsd_store_corrupt_total", typ: "counter",
				help: "Corrupt persistent-store entries detected (undecodable, torn, mis-named).", value: float64(st.Corrupt)},
			metric{name: "uopsd_store_quarantined_total", typ: "counter",
				help: "Corrupt entries renamed aside to *.corrupt.", value: float64(st.Quarantined)},
			metric{name: "uopsd_store_evicted_digests_total", typ: "counter",
				help: "Whole digests evicted to stay within the store budget.", value: float64(st.EvictedDigests)},
			metric{name: "uopsd_store_evicted_files_total", typ: "counter",
				help: "Files removed by budget eviction.", value: float64(st.EvictedFiles)},
			metric{name: "uopsd_store_evicted_bytes_total", typ: "counter",
				help: "Bytes reclaimed by budget eviction.", value: float64(st.EvictedBytes)},
			metric{name: "uopsd_store_swept_debris_total", typ: "counter",
				help: "Debris files collected by startup integrity sweeps.", value: float64(st.SweptDebris)},
			metric{name: "uopsd_store_saves_suppressed_total", typ: "counter",
				help: "Store writes suppressed while the store was write-degraded.", value: float64(st.SavesSuppressed)})
		// Bytes and files per storage tier, one labeled series each.
		perTier := []struct {
			tier  string
			stats store.TierStats
		}{
			{"blocking", st.Blocking},
			{"variant", st.Variant},
		}
		for _, pt := range perTier {
			ms = append(ms, metric{name: "uopsd_store_bytes", typ: "gauge",
				help:   "Persistent-store bytes per storage tier.",
				labels: fmt.Sprintf(`{tier=%q}`, pt.tier), value: float64(pt.stats.Bytes)})
		}
		for _, pt := range perTier {
			ms = append(ms, metric{name: "uopsd_store_files", typ: "gauge",
				help:   "Persistent-store files per storage tier.",
				labels: fmt.Sprintf(`{tier=%q}`, pt.tier), value: float64(pt.stats.Files)})
		}
	}
	// Every state is emitted, 0 when empty, so a scrape of a fresh server or
	// of one whose finished jobs expired reads 0 rather than no data.
	counts := s.jobs.counts()
	for _, state := range []string{jobRunning, jobDone, jobFailed} {
		ms = append(ms, metric{name: "uopsd_jobs", typ: "gauge",
			help:   "Jobs in the job table by state.",
			labels: fmt.Sprintf(`{state=%q}`, state), value: float64(counts[state])})
	}
	return ms
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	prev := ""
	for _, m := range s.metrics() {
		if m.name != prev {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.typ)
			prev = m.name
		}
		fmt.Fprintf(w, "%s%s %g\n", m.name, m.labels, m.value)
	}
}
