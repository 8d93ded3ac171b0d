package engine

// Engine-level acceptance tests for the store lifecycle: a store whose disk
// has failed completely must degrade — visibly, via StoreMode — without ever
// failing a characterization request, and corruption the store finds must
// surface in engine.Stats.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"uopsinfo/internal/store"
	"uopsinfo/internal/store/errfs"
	"uopsinfo/internal/uarch"
)

// TestCrashedStoreDoesNotFailRuns runs characterization against a store
// whose filesystem fails every operation. Requests must keep succeeding with
// results identical to a store-less engine's, the save errors must be
// counted, and the store must degrade visibly instead of erroring forever.
func TestCrashedStoreDoesNotFailRuns(t *testing.T) {
	fsys := errfs.New()
	st, err := store.OpenOptions(t.TempDir(), store.Options{FS: fsys, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	fsys.Crash()

	opts := RunOptions{Only: testOnly}
	baseline := mustNew(t, Config{Workers: 4})
	want := renderXML(t, baseline, opts)

	e := mustNew(t, Config{Workers: 4, Store: st})
	if e.StoreMode() != store.ModeOK {
		t.Fatalf("store degraded before any operation: %q", e.StoreMode())
	}
	// Two full runs: the first accumulates save failures below the
	// degradation threshold, the second crosses it. Both must succeed.
	for i := 0; i < 2; i++ {
		if got := renderXML(t, e, opts); !bytes.Equal(got, want) {
			t.Fatalf("run %d against the dead store: XML differs from the store-less engine", i)
		}
	}
	if got := e.StoreMode(); got == store.ModeOK {
		t.Error("store still reports ok after every save and load failed")
	}
	stats := e.Stats()
	if stats.SaveErrors == 0 {
		t.Error("store failures were not counted as save errors")
	}
	if stats.Store == nil || stats.Store.Mode == store.ModeOK {
		t.Errorf("engine stats do not surface the degraded store: %+v", stats.Store)
	}
	// The runs themselves were unharmed: every variant was measured.
	if stats.VariantsMeasured != 2*len(testOnly) {
		t.Errorf("measured %d variants across two store-less runs, want %d",
			stats.VariantsMeasured, 2*len(testOnly))
	}

	// An engine over a degraded-at-birth store must also come up fine.
	again := mustNew(t, Config{Workers: 4, Store: st})
	if got := renderXML(t, again, opts); !bytes.Equal(got, want) {
		t.Error("engine over an already-degraded store renders different XML")
	}
}

// TestEngineStatsExposeStoreLifecycle checks the plumbing the service
// depends on: corruption found by the engine's own store surfaces in
// engine.Stats.
func TestEngineStatsExposeStoreLifecycle(t *testing.T) {
	dir := t.TempDir()
	opts := RunOptions{Only: testOnly}
	cold := mustNew(t, Config{Workers: 4, CacheDir: dir})
	renderXML(t, cold, opts)

	// Corrupt every variant entry on disk; the warm engine must quarantine
	// them, re-measure, and report the corruption through its stats.
	corruptFiles(t, dir, store.KindVariant)
	warm := mustNew(t, Config{Workers: 4, CacheDir: dir})
	if _, err := warm.CharacterizeArch(uarch.Skylake, opts); err != nil {
		t.Fatal(err)
	}
	st := warm.Stats().Store
	if st == nil {
		t.Fatal("engine reports no store stats")
	}
	if st.Corrupt != int64(len(testOnly)) || st.Quarantined != int64(len(testOnly)) {
		t.Errorf("store stats report %d corrupt / %d quarantined entries, want %d each",
			st.Corrupt, st.Quarantined, len(testOnly))
	}
	if warm.Stats().VariantsMeasured != len(testOnly) {
		t.Errorf("re-measured %d variants after corruption, want %d",
			warm.Stats().VariantsMeasured, len(testOnly))
	}
}

func corruptFiles(t *testing.T, dir, kind string) {
	t.Helper()
	names := storeFiles(t, dir, kind)
	if len(names) == 0 {
		t.Fatalf("no %s entries to corrupt", kind)
	}
	for _, name := range names {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("corrupt"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
