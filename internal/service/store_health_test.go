package service

// Service-level checks of the store lifecycle surface: a degraded store is
// reported by /healthz (without failing the liveness probe — the service
// still serves) and the uopsd_store_* metrics flow through /metrics.

import (
	"encoding/json"
	"net/http"
	"strings"
	"syscall"
	"testing"

	"uopsinfo/internal/engine"
	"uopsinfo/internal/store"
	"uopsinfo/internal/store/errfs"
)

// degradedStore returns a store driven to read-only by a full disk.
func degradedStore(t *testing.T) *store.Store {
	t.Helper()
	fsys := errfs.New()
	st, err := store.OpenOptions(t.TempDir(), store.Options{FS: fsys, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	fsys.Inject(errfs.Fault{Op: errfs.OpWrite, Err: syscall.ENOSPC, Sticky: true})
	if err := st.SaveBlocking(store.Key{Arch: "Skylake", Scope: "blocking"}, &store.BlockingRecord{}); err == nil {
		t.Fatal("save on the injected full disk succeeded")
	}
	if st.Mode() != store.ModeReadOnly {
		t.Fatalf("store mode %q after ENOSPC, want %q", st.Mode(), store.ModeReadOnly)
	}
	return st
}

// TestHealthzReportsDegradedStore pins the operator contract: the liveness
// probe keeps answering 200 (the service serves, re-measuring instead of
// caching) but says "degraded" and names the store mode.
func TestHealthzReportsDegradedStore(t *testing.T) {
	svc, _ := newTestService(t, engine.Config{Store: degradedStore(t)})
	code, body := get(t, svc, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("GET /healthz = %d, want 200 (a degraded store is not a liveness failure)", code)
	}
	var resp map[string]string
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("healthz body %q: %v", body, err)
	}
	if resp["status"] != "degraded" || resp["store"] != store.ModeReadOnly {
		t.Errorf("healthz = %v, want status degraded with store %q", resp, store.ModeReadOnly)
	}
}

// TestMetricsExposeStoreLifecycle checks the store counters reach the
// Prometheus exposition, including the per-tier gauges.
func TestMetricsExposeStoreLifecycle(t *testing.T) {
	svc, _ := newTestService(t, engine.Config{Store: degradedStore(t)})
	code, body := get(t, svc, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", code)
	}
	text := string(body)
	for _, want := range []string{
		"uopsd_store_degraded 1",
		"uopsd_store_degradations_total 1",
		"uopsd_store_corrupt_total 0",
		"uopsd_store_quarantined_total 0",
		"uopsd_store_saves_suppressed_total",
		`uopsd_store_bytes{tier="variant"}`,
		`uopsd_store_files{tier="blocking"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics is missing %q", want)
		}
	}
	// The store keeps two kinds of entries and never compacts.
	for _, gone := range []string{"uopsd_store_compact", `tier="result"`, `tier="segment"`} {
		if strings.Contains(text, gone) {
			t.Errorf("/metrics still exposes %q", gone)
		}
	}
}

// TestMetricsWithoutStore pins that a store-less engine (no cache directory
// configured) serves /metrics without store series rather than failing.
func TestMetricsWithoutStore(t *testing.T) {
	svc, _ := newTestService(t, engine.Config{})
	code, body := get(t, svc, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", code)
	}
	if strings.Contains(string(body), "uopsd_store_") {
		t.Error("store-less service exposes store metrics")
	}
}
