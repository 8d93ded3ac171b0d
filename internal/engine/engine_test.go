package engine

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"uopsinfo/internal/core"
	"uopsinfo/internal/store"
	"uopsinfo/internal/uarch"
	"uopsinfo/internal/xmlout"
)

var testOnly = []string{"ADD_R64_R64", "IMUL_R64_R64", "PXOR_XMM_XMM", "MOV_R64_M64"}

// storeFiles lists the store files of one kind (filenames are
// "<kind>-<digest prefix>-<hash>.json").
func storeFiles(t *testing.T, dir, kind string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ent := range entries {
		if strings.HasPrefix(ent.Name(), kind+"-") {
			names = append(names, ent.Name())
		}
	}
	return names
}

func removeFiles(t *testing.T, dir string, names []string) {
	t.Helper()
	for _, name := range names {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
}

func mustNew(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func renderXML(t *testing.T, e *Engine, opts RunOptions) []byte {
	t.Helper()
	res, err := e.CharacterizeArch(uarch.Skylake, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	doc := &xmlout.Document{Architectures: []xmlout.Architecture{xmlout.FromArchResult(res, nil)}}
	if err := xmlout.Write(&buf, doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEngineCache drives the full store path once (one cold blocking
// discovery) and checks every warm-path guarantee against it.
func TestEngineCache(t *testing.T) {
	dir := t.TempDir()
	opts := RunOptions{Only: testOnly}

	cold := mustNew(t, Config{Workers: 4, CacheDir: dir})
	coldXML := renderXML(t, cold, opts)
	coldRes, err := cold.CharacterizeArch(uarch.Skylake, opts) // second call: in-process store hit
	if err != nil {
		t.Fatal(err)
	}

	// A cold run writes two kinds of entries and nothing else: the blocking
	// set and one file per variant.
	requireLayout(t, dir, len(testOnly))

	t.Run("warm result is byte-identical", func(t *testing.T) {
		for _, workers := range []int{1, 4} {
			warm := mustNew(t, Config{Workers: workers, CacheDir: dir})
			if got := renderXML(t, warm, opts); !bytes.Equal(got, coldXML) {
				t.Errorf("workers=%d: warm-cache XML differs from cold run (%d vs %d bytes)",
					workers, len(got), len(coldXML))
			}
		}
	})

	t.Run("warm blocking set restores without discovery", func(t *testing.T) {
		warm := mustNew(t, Config{
			Workers:  1,
			CacheDir: dir,
			BlockingProgress: func(gen uarch.Generation, done, total int, name string) {
				t.Errorf("blocking discovery ran on a warm cache (%s %d/%d)", gen, done, total)
			},
		})
		c, err := warm.Characterizer(uarch.Skylake)
		if err != nil {
			t.Fatal(err)
		}
		wantBS, err := cold.chars[uarch.Skylake].c.Blocking()
		if err != nil {
			t.Fatal(err)
		}
		gotBS, err := c.Blocking()
		if err != nil {
			t.Fatal(err)
		}
		if len(gotBS.SSE) != len(wantBS.SSE) || len(gotBS.AVX) != len(wantBS.AVX) {
			t.Fatalf("restored blocking set has %d/%d combinations, want %d/%d",
				len(gotBS.SSE), len(gotBS.AVX), len(wantBS.SSE), len(wantBS.AVX))
		}
		for key, w := range wantBS.SSE {
			g, ok := gotBS.SSE[key]
			if !ok || g.Instr.Name != w.Instr.Name || g.Throughput != w.Throughput {
				t.Errorf("restored SSE p%s = %+v, want %s", key, g, w.Instr.Name)
			}
		}
	})

	t.Run("corrupt cache falls back to recomputation", func(t *testing.T) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range entries {
			if err := os.WriteFile(filepath.Join(dir, ent.Name()), []byte("corrupt"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		recomputed := mustNew(t, Config{Workers: 4, CacheDir: dir})
		if got := renderXML(t, recomputed, opts); !bytes.Equal(got, coldXML) {
			t.Error("recomputed-after-corruption XML differs from the cold run")
		}
		res, err := recomputed.CharacterizeArch(uarch.Skylake, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, coldRes) {
			t.Error("recomputed result differs from the cold result")
		}
	})

	t.Run("different scope misses", func(t *testing.T) {
		warm := mustNew(t, Config{Workers: 4, CacheDir: dir})
		res, err := warm.CharacterizeArch(uarch.Skylake, RunOptions{Only: testOnly, SkipLatency: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Results {
			if len(r.Latency.Pairs) != 0 {
				t.Errorf("%s: SkipLatency run served a cached full result", r.Name)
			}
		}
	})
}

// requireLayout asserts the store directory holds exactly one blocking entry
// and variants per-variant entries.
func requireLayout(t *testing.T, dir string, variants int) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	blocking, variant := len(storeFiles(t, dir, store.KindBlocking)), len(storeFiles(t, dir, store.KindVariant))
	if blocking != 1 || variant != variants || len(entries) != blocking+variant {
		names := make([]string, len(entries))
		for i, ent := range entries {
			names[i] = ent.Name()
		}
		t.Errorf("cache dir holds %v, want 1 blocking entry and %d variant entries only", names, variants)
	}
}

// TestIncrementalVariantCache is the engine-level acceptance test for the
// per-variant tier: after evicting a strict subset of per-variant entries, a
// warm run re-measures only the missing variants (observable via Stats) and
// emits XML byte-identical to the cold run, for worker counts 1, 4 and
// NumCPU.
func TestIncrementalVariantCache(t *testing.T) {
	dir := t.TempDir()
	opts := RunOptions{Only: testOnly}

	cold := mustNew(t, Config{Workers: 4, CacheDir: dir})
	coldXML := renderXML(t, cold, opts)
	if st := cold.Stats(); st.VariantsMeasured != len(testOnly) || st.VariantHits != 0 {
		t.Fatalf("cold run stats = %+v, want %d variants measured and 0 hits", st, len(testOnly))
	}

	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		// Evict a strict subset — two — of the per-variant entries. The
		// previous iteration re-filled the store, so each pass starts from a
		// fully warm state.
		variants := storeFiles(t, dir, store.KindVariant)
		if len(variants) != len(testOnly) {
			t.Fatalf("store has %d variant entries, want %d", len(variants), len(testOnly))
		}
		evicted := variants[:2]
		removeFiles(t, dir, evicted)

		warm := mustNew(t, Config{
			Workers:  workers,
			CacheDir: dir,
			BlockingProgress: func(gen uarch.Generation, done, total int, name string) {
				t.Errorf("workers=%d: blocking discovery ran on a warm cache (%s %d/%d)", workers, gen, done, total)
			},
		})
		if got := renderXML(t, warm, opts); !bytes.Equal(got, coldXML) {
			t.Errorf("workers=%d: incremental warm XML differs from cold run (%d vs %d bytes)",
				workers, len(got), len(coldXML))
		}
		st := warm.Stats()
		if st.VariantsMeasured != len(evicted) {
			t.Errorf("workers=%d: re-measured %d variants, want exactly the %d evicted ones",
				workers, st.VariantsMeasured, len(evicted))
		}
		if want := len(testOnly) - len(evicted); st.VariantHits != want {
			t.Errorf("workers=%d: %d variant hits, want %d", workers, st.VariantHits, want)
		}
	}
}

// TestFullVariantHitSkipsStackBuild checks the merge-only warm path: when
// every requested variant is served by the per-variant tier, the engine
// must not build a characterizer at all — no runner construction and no
// blocking discovery — even with the blocking entry gone.
func TestFullVariantHitSkipsStackBuild(t *testing.T) {
	dir := t.TempDir()
	opts := RunOptions{Only: testOnly}
	cold := mustNew(t, Config{Workers: 4, CacheDir: dir})
	coldXML := renderXML(t, cold, opts)
	requireLayout(t, dir, len(testOnly))

	removeFiles(t, dir, storeFiles(t, dir, store.KindBlocking))

	warm := mustNew(t, Config{
		Workers:  4,
		CacheDir: dir,
		BlockingProgress: func(gen uarch.Generation, done, total int, name string) {
			t.Errorf("blocking discovery ran despite full per-variant coverage (%s %d/%d)", gen, done, total)
		},
	})
	if got := renderXML(t, warm, opts); !bytes.Equal(got, coldXML) {
		t.Error("variant-merged XML differs from the cold run")
	}
	st := warm.Stats()
	if st.VariantsMeasured != 0 || st.VariantHits != len(testOnly) {
		t.Errorf("stats = %+v, want 0 measured and %d hits", st, len(testOnly))
	}
	if st.ResultHits != 1 || st.ResultMisses != 0 {
		t.Errorf("stats = %+v, want the run counted as 1 result hit and 0 misses", st)
	}
	if len(warm.chars) != 0 {
		t.Errorf("engine built %d characterizer stacks, want none", len(warm.chars))
	}
	// The merge wrote nothing: the variant files are the whole answer.
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != len(testOnly) {
		t.Errorf("merge-only run left %d files (err %v), want the %d variant files", len(entries), err, len(testOnly))
	}
}

// TestUnknownBackend checks the engine refuses an unregistered backend with
// an error that lists what is registered, instead of silently defaulting.
func TestUnknownBackend(t *testing.T) {
	_, err := New(Config{Backend: "no-such-substrate"})
	if err == nil {
		t.Fatal("New accepted an unregistered backend")
	}
	msg := err.Error()
	if !strings.Contains(msg, "no-such-substrate") || !strings.Contains(msg, "pipesim") {
		t.Errorf("error %q does not name the unknown backend and the registered ones", msg)
	}
}

// TestBackendFingerprintSeparatesEntries checks that two engines on the same
// store but different backend fingerprints never share cache entries.
func TestBackendFingerprintSeparatesEntries(t *testing.T) {
	a := mustNew(t, Config{})
	ka := a.key(uarch.Get(uarch.Skylake), store.KindBlocking)
	kb := ka
	kb.Backend = "othersim@1"
	if ka.VariantFilename("ADD_R64_R64") == kb.VariantFilename("ADD_R64_R64") {
		t.Error("different backend fingerprints produced the same variant filename")
	}
}

// TestEngineWithoutCache checks the engine works with no store configured
// and that results match core's direct path.
func TestEngineWithoutCache(t *testing.T) {
	e := Default()
	res, err := e.CharacterizeArch(uarch.Skylake, RunOptions{Only: testOnly, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != len(testOnly) {
		t.Fatalf("got %d results, want %d", len(res.Results), len(testOnly))
	}
	for _, name := range testOnly {
		if res.Results[name] == nil || res.Results[name].Skipped != "" {
			t.Errorf("%s not characterized: %+v", name, res.Results[name])
		}
	}
}

// TestPrewarmBuildsConcurrently prewarms two generations and checks both
// characterizers come out usable and are the ones later calls observe.
func TestPrewarmBuildsConcurrently(t *testing.T) {
	e := mustNew(t, Config{Workers: 4})
	gens := []uarch.Generation{uarch.Skylake, uarch.Nehalem, uarch.Skylake}
	if err := e.Prewarm(gens); err != nil {
		t.Fatal(err)
	}
	for _, gen := range gens {
		c, err := e.Characterizer(gen)
		if err != nil {
			t.Fatal(err)
		}
		if c.Arch().Gen() != gen {
			t.Errorf("characterizer for %s reports %s", gen, c.Arch().Gen())
		}
		bs, err := c.Blocking()
		if err != nil {
			t.Fatal(err)
		}
		if len(bs.SSE) == 0 {
			t.Errorf("%s: prewarmed characterizer has no blocking set", gen)
		}
	}
}

// waitForStat polls the engine's stats until cond is satisfied or the
// deadline passes; rendezvous for the coalescing tests, which must observe a
// run while it is still in flight.
func waitForStat(t *testing.T, e *Engine, what string, cond func(Stats) bool) bool {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond(e.Stats()) {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	t.Errorf("timed out waiting for %s (stats: %+v)", what, e.Stats())
	return false
}

// TestCharacterizeCoalescing checks the singleflight contract: K concurrent
// identical cold requests perform exactly one measurement run, the waiters
// attach to the in-flight execution, everyone gets a result rendering to
// byte-identical XML, and the stats account for one run and K-1 waiters.
func TestCharacterizeCoalescing(t *testing.T) {
	const waiters = 4
	released := make(chan struct{})
	var gate sync.Once
	// The leader's cold run is held inside blocking discovery until every
	// waiter has attached, so coalescing is deterministic rather than a race
	// the test usually wins.
	e := mustNew(t, Config{
		Workers:  2,
		CacheDir: t.TempDir(),
		BlockingProgress: func(gen uarch.Generation, done, total int, name string) {
			gate.Do(func() { <-released })
		},
	})
	opts := RunOptions{Only: testOnly}

	results := make([]*core.ArchResult, waiters+1)
	errs := make([]error, waiters+1)
	var wg sync.WaitGroup
	launch := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = e.CharacterizeArchContext(context.Background(), uarch.Skylake, opts)
		}()
	}

	launch(0)
	if !waitForStat(t, e, "the leader to start", func(s Stats) bool { return s.Runs == 1 }) {
		close(released)
		wg.Wait()
		t.FailNow()
	}
	for i := 1; i <= waiters; i++ {
		launch(i)
	}
	ok := waitForStat(t, e, "all waiters to attach", func(s Stats) bool { return s.CoalescedWaiters == waiters })
	close(released)
	wg.Wait()
	if !ok {
		t.FailNow()
	}

	var first []byte
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		var buf bytes.Buffer
		doc := &xmlout.Document{Architectures: []xmlout.Architecture{xmlout.FromArchResult(res, nil)}}
		if err := xmlout.Write(&buf, doc); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), first) {
			t.Errorf("request %d rendered different XML than request 0", i)
		}
	}
	st := e.Stats()
	if st.Runs != 1 || st.CoalescedWaiters != waiters {
		t.Errorf("stats = %d runs, %d coalesced waiters, want 1, %d", st.Runs, st.CoalescedWaiters, waiters)
	}
	if st.VariantsMeasured != len(testOnly) {
		t.Errorf("%d variants measured for %d coalesced requests, want exactly %d",
			st.VariantsMeasured, waiters+1, len(testOnly))
	}

	// A later identical request is a store hit, not a new measurement.
	if _, err := e.CharacterizeArch(uarch.Skylake, opts); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.ResultHits == 0 || st.VariantsMeasured != len(testOnly) {
		t.Errorf("warm follow-up re-measured: %+v", st)
	}
}

// TestCoalescedWaiterHonorsContext checks that a waiter whose context is
// cancelled unblocks with ctx.Err() while the in-flight run keeps going.
func TestCoalescedWaiterHonorsContext(t *testing.T) {
	released := make(chan struct{})
	var gate sync.Once
	e := mustNew(t, Config{
		Workers: 2,
		BlockingProgress: func(gen uarch.Generation, done, total int, name string) {
			gate.Do(func() { <-released })
		},
	})
	opts := RunOptions{Only: testOnly}

	leaderDone := make(chan error, 1)
	go func() {
		_, err := e.CharacterizeArchContext(context.Background(), uarch.Skylake, opts)
		leaderDone <- err
	}()
	if !waitForStat(t, e, "the leader to start", func(s Stats) bool { return s.Runs == 1 }) {
		close(released)
		t.FailNow()
	}

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, err := e.CharacterizeArchContext(ctx, uarch.Skylake, opts)
		waiterDone <- err
	}()
	if !waitForStat(t, e, "the waiter to attach", func(s Stats) bool { return s.CoalescedWaiters == 1 }) {
		close(released)
		t.FailNow()
	}
	cancel()
	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled waiter returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Error("cancelled waiter did not unblock")
	}

	close(released)
	if err := <-leaderDone; err != nil {
		t.Errorf("leader failed after a waiter was cancelled: %v", err)
	}

	// A pre-cancelled context is rejected at admission.
	if _, err := e.CharacterizeArchContext(ctx, uarch.Skylake, opts); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled request returned %v, want context.Canceled", err)
	}
}

// TestInvalidGenerationIsAnError checks every request-facing engine entry
// point degrades an out-of-range generation to an error instead of a panic:
// the HTTP service feeds it values decoded from URLs.
func TestInvalidGenerationIsAnError(t *testing.T) {
	e := Default()
	for _, gen := range []uarch.Generation{-1, 99} {
		if _, err := e.CharacterizeArch(gen, RunOptions{}); err == nil {
			t.Errorf("CharacterizeArch(%d) did not fail", int(gen))
		}
		if _, err := e.Characterizer(gen); err == nil {
			t.Errorf("Characterizer(%d) did not fail", int(gen))
		}
		if _, err := e.Harness(gen); err == nil {
			t.Errorf("Harness(%d) did not fail", int(gen))
		}
	}
}

// TestFlightReleasedOnPanic checks the singleflight cleanup path: a run that
// panics (e.g. in a caller-supplied Progress callback, recovered further up
// by the HTTP service) must release its flight so later identical requests
// run instead of blocking forever on a dead flight's done channel.
func TestFlightReleasedOnPanic(t *testing.T) {
	e := mustNew(t, Config{Workers: 1})
	boom := true
	opts := RunOptions{Only: testOnly[:1], Progress: func(done, total int, name string) {
		if boom {
			panic("kaboom")
		}
	}}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("the poisoned run did not panic")
			}
		}()
		e.CharacterizeArch(uarch.Skylake, opts)
	}()

	boom = false
	done := make(chan error, 1)
	go func() {
		_, err := e.CharacterizeArch(uarch.Skylake, opts)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("identical request after a panicked run failed: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("identical request after a panicked run hung on the leaked flight")
	}
}
