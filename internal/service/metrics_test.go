package service

import (
	"net/http"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"uopsinfo/internal/engine"
	"uopsinfo/internal/measure/remote"
)

// seriesFamily is one metric family as /metrics exposes it: its TYPE and
// HELP text, and the label keys of each of its samples (comma-joined, ""
// for an unlabeled sample).
type seriesFamily struct {
	typ, help string
	labels    []string
}

// wantSeries is the exposition of a service over an engine with a store and
// a 2-worker loopback fleet, after one run: 42 families, 49 samples. Scrape
// pipelines and dashboards key on these names, types and label keys, so a
// change here is an API change.
var wantSeries = map[string]seriesFamily{
	"uopsd_engine_blocking_hits_total":        {"counter", "Blocking-set store hits.", []string{""}},
	"uopsd_engine_blocking_misses_total":      {"counter", "Blocking-set store misses.", []string{""}},
	"uopsd_engine_coalesced_waiters_total":    {"counter", "Requests that attached to an in-flight identical run.", []string{""}},
	"uopsd_engine_memory_hits_total":          {"counter", "Per-variant records answered from the engine's memory of earlier store reads.", []string{""}},
	"uopsd_engine_pool_forked_total":          {"counter", "Worker stacks built fresh by the fork pools.", []string{""}},
	"uopsd_engine_pool_reused_total":          {"counter", "Worker stacks reused warm from the fork pools.", []string{""}},
	"uopsd_engine_reading_bytes":              {"gauge", "Bytes charged to the readings the engine's reading table holds.", []string{""}},
	"uopsd_engine_reading_drops_total":        {"counter", "Times the engine's reading table dropped its readings whole to make room.", []string{""}},
	"uopsd_engine_reading_hits_total":         {"counter", "Simulator readings answered from the engine's reading table.", []string{""}},
	"uopsd_engine_reading_misses_total":       {"counter", "Simulator readings the engine's reading table did not hold, and so simulated.", []string{""}},
	"uopsd_engine_result_hits_total":          {"counter", "Store-backed runs answered wholly from stored per-variant records.", []string{""}},
	"uopsd_engine_result_misses_total":        {"counter", "Store-backed runs that measured at least one variant.", []string{""}},
	"uopsd_engine_runs_total":                 {"counter", "Characterization runs executed (not coalesced onto another run).", []string{""}},
	"uopsd_engine_store_save_errors_total":    {"counter", "Failed persistent-store writes.", []string{""}},
	"uopsd_engine_variant_hits_total":         {"counter", "Per-variant records served from the store.", []string{""}},
	"uopsd_engine_variants_measured_total":    {"counter", "Instruction variants actually measured.", []string{""}},
	"uopsd_fleet_batches_total":               {"counter", "Measurement requests this process sent to its fleet (including retries).", []string{""}},
	"uopsd_fleet_errors_total":                {"counter", "Fleet measurement requests that failed (transport error, non-200, drifted worker).", []string{""}},
	"uopsd_fleet_retries_total":               {"counter", "Sequences sent again after a transient fleet request failure.", []string{""}},
	"uopsd_fleet_sequences_total":             {"counter", "Sequences this process submitted to its fleet.", []string{""}},
	"uopsd_fleet_worker_batch_latency_micros": {"gauge", "Mean measurement request latency against the fleet worker, microseconds.", []string{"worker", "worker"}},
	"uopsd_fleet_worker_batches_total":        {"counter", "Measurement requests sent to the fleet worker.", []string{"worker", "worker"}},
	"uopsd_fleet_worker_errors_total":         {"counter", "Failed measurement requests against the fleet worker.", []string{"worker", "worker"}},
	"uopsd_fleet_worker_healthy":              {"gauge", "Whether the fleet worker is in rotation (1) or being probed after failures (0).", []string{"worker", "worker"}},
	"uopsd_fleet_worker_sequences_total":      {"counter", "Sequences sent to the fleet worker.", []string{"worker", "worker"}},
	"uopsd_http_client_gone_total":            {"counter", "Requests whose client went away before a response was written.", []string{""}},
	"uopsd_http_errors_total":                 {"counter", "HTTP requests answered with a 4xx or 5xx status.", []string{""}},
	"uopsd_http_panics_total":                 {"counter", "Handler panics caught and contained.", []string{""}},
	"uopsd_http_rate_limited_total":           {"counter", "Requests rejected with 429 by the rate limiter.", []string{""}},
	"uopsd_http_render_hits_total":            {"counter", "Whole-generation responses written from the bytes kept for their ETag.", []string{""}},
	"uopsd_http_requests_total":               {"counter", "HTTP requests received.", []string{""}},
	"uopsd_measure_batches_total":             {"counter", "Fleet-worker measurement batches served by POST /v1/measure.", []string{""}},
	"uopsd_measure_sequence_errors_total":     {"counter", "Sequences inside /v1/measure batches that failed.", []string{""}},
	"uopsd_measure_sequences_total":           {"counter", "Sequences measured inside /v1/measure batches.", []string{""}},
	"uopsd_store_bytes":                       {"gauge", "Persistent-store bytes per storage tier.", []string{"tier", "tier"}},
	"uopsd_store_corrupt_total":               {"counter", "Corrupt persistent-store entries detected (undecodable, torn, mis-named).", []string{""}},
	"uopsd_store_degradations_total":          {"counter", "Transitions of the persistent store into a degraded mode.", []string{""}},
	"uopsd_store_degraded":                    {"gauge", "Whether the persistent store is in a degraded mode (read-only or compute-only).", []string{""}},
	"uopsd_store_files":                       {"gauge", "Persistent-store files per storage tier.", []string{"tier", "tier"}},
	"uopsd_store_quarantined_total":           {"counter", "Corrupt entries renamed aside to *.corrupt.", []string{""}},
	"uopsd_store_saves_suppressed_total":      {"counter", "Store writes suppressed while the store was write-degraded.", []string{""}},
	"uopsd_store_swept_debris_total":          {"counter", "Debris files collected by startup integrity sweeps.", []string{""}},
}

// parseExposition parses a Prometheus text exposition into its families,
// failing unless each family has exactly one HELP line and then one TYPE
// line ahead of its samples, and its samples follow them contiguously.
func parseExposition(t *testing.T, text string) map[string]*seriesFamily {
	t.Helper()
	sample := regexp.MustCompile(`^([a-z_]+)(\{[^{}]*\})? (\S+)$`)
	labelKey := regexp.MustCompile(`([a-z_]+)="`)
	fams := make(map[string]*seriesFamily)
	cur := ""
	for i, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name, help, _ := strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
			if fams[name] != nil {
				t.Fatalf("line %d: second HELP for %s", i+1, name)
			}
			fams[name] = &seriesFamily{help: help}
			cur = name
		case strings.HasPrefix(line, "# TYPE "):
			name, typ, _ := strings.Cut(strings.TrimPrefix(line, "# TYPE "), " ")
			if name != cur || fams[name].typ != "" {
				t.Fatalf("line %d: TYPE for %s is not the one right after its HELP", i+1, name)
			}
			fams[name].typ = typ
		default:
			m := sample.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d is neither comment nor sample: %q", i+1, line)
			}
			if m[1] != cur || fams[cur].typ == "" {
				t.Fatalf("line %d: sample of %s outside its HELP/TYPE block", i+1, m[1])
			}
			var keys []string
			for _, k := range labelKey.FindAllStringSubmatch(m[2], -1) {
				keys = append(keys, k[1])
			}
			fams[cur].labels = append(fams[cur].labels, strings.Join(keys, ","))
		}
	}
	return fams
}

// TestMetricsSeries pins the /metrics exposition: every family's name, type,
// help text and per-sample label keys. It fails when a series is renamed,
// dropped, retyped or re-described.
func TestMetricsSeries(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback fleet characterization in -short mode")
	}
	configureFleet(t, 2)
	eng, err := engine.New(engine.Config{Workers: 2, Backend: remote.BackendName, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(Config{Engine: eng, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if code, body := get(t, svc, "/v1/arch/skylake?only=ADD_R64_R64"); code != http.StatusOK {
		t.Fatalf("GET /v1/arch/skylake = %d: %s", code, body)
	}
	code, body := get(t, svc, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	got := parseExposition(t, string(body))

	samples := 0
	for _, f := range got {
		samples += len(f.labels)
	}
	if len(got) != 42 || samples != 49 {
		t.Errorf("exposition has %d families and %d samples, want 42 and 49", len(got), samples)
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want, ok := wantSeries[name]
		if !ok {
			t.Errorf("unexpected family %s", name)
			continue
		}
		if !reflect.DeepEqual(*got[name], want) {
			t.Errorf("family %s = %+v, want %+v", name, *got[name], want)
		}
	}
	for name := range wantSeries {
		if got[name] == nil {
			t.Errorf("family %s is missing", name)
		}
	}
}
