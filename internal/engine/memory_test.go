package engine

// Tests of the engine's memory of store records: a store-backed engine keeps
// every record the store returns and answers repeated queries from it.

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"uopsinfo/internal/core"
	"uopsinfo/internal/store"
	"uopsinfo/internal/store/errfs"
	"uopsinfo/internal/uarch"
)

// TestRepeatRunReadsNoFile checks that once the store has returned a
// record, the engine answers it from memory: after a first run reads the
// variant files, a repeat of the query and a subset of it read no file,
// render XML byte-identical to the cold run's, and count every record they
// serve as a memory hit.
func TestRepeatRunReadsNoFile(t *testing.T) {
	dir := t.TempDir()
	opts := RunOptions{Only: testOnly}
	cold := mustNew(t, Config{Workers: 4, CacheDir: dir})
	coldXML := renderXML(t, cold, opts)

	fsys := errfs.New()
	st, err := store.OpenOptions(dir, store.Options{FS: fsys, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	e := mustNew(t, Config{Workers: 4, Store: st})
	if got := renderXML(t, e, opts); !bytes.Equal(got, coldXML) {
		t.Fatal("first warm run: XML differs from the cold run")
	}
	if s := e.Stats(); s.VariantHits != len(testOnly) || s.MemoryHits != 0 || s.VariantsMeasured != 0 {
		t.Fatalf("first warm run: stats = %+v, want %d variant hits read from files", s, len(testOnly))
	}
	reads := fsys.Ops(errfs.OpReadFile)

	if got := renderXML(t, e, opts); !bytes.Equal(got, coldXML) {
		t.Error("repeated run: XML differs from the cold run")
	}
	subset := RunOptions{Only: testOnly[1:3]}
	if got, want := renderXML(t, e, subset), renderXML(t, cold, subset); !bytes.Equal(got, want) {
		t.Error("subset run: XML differs from the cold engine's")
	}
	if got := fsys.Ops(errfs.OpReadFile); got != reads {
		t.Errorf("repeated and subset runs read %d files, want none", got-reads)
	}
	s := e.Stats()
	if want := len(testOnly) + len(subset.Only); s.MemoryHits != want {
		t.Errorf("%d memory hits, want the %d records served after the first run", s.MemoryHits, want)
	}
	if want := 2*len(testOnly) + len(subset.Only); s.VariantHits != want || s.VariantsMeasured != 0 {
		t.Errorf("stats = %+v, want %d variant hits and nothing measured", s, want)
	}
}

// TestMemoryKeepsScopesApart checks that remembered records stay under the
// variant-tier digest they were read under: a quick run of names whose full
// records are in memory measures them instead of recalling them.
func TestMemoryKeepsScopesApart(t *testing.T) {
	e := mustNew(t, Config{Workers: 4, CacheDir: t.TempDir()})
	full := RunOptions{Only: testOnly}
	// The first run measures and saves; the second reads the files back,
	// which puts the full records in memory.
	var res *core.ArchResult
	for i := 0; i < 2; i++ {
		var err error
		if res, err = e.CharacterizeArch(uarch.Skylake, full); err != nil {
			t.Fatal(err)
		}
	}
	if res.Results["ADD_R64_R64"] == nil || len(res.Results["ADD_R64_R64"].Latency.Pairs) == 0 {
		t.Fatal("the full ADD_R64_R64 record has no latency pairs; the test exercises nothing")
	}
	before := e.Stats()
	if before.VariantHits != len(testOnly) {
		t.Fatalf("stats = %+v, want the second run's %d records read from the store", before, len(testOnly))
	}

	quick, err := e.CharacterizeArch(uarch.Skylake, RunOptions{Only: testOnly, SkipLatency: true})
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range quick.Results {
		if len(r.Latency.Pairs) != 0 {
			t.Errorf("%s: the quick run served a full record's latency pairs", name)
		}
	}
	after := e.Stats()
	if got := after.VariantsMeasured - before.VariantsMeasured; got != len(testOnly) {
		t.Errorf("the quick run measured %d variants, want %d", got, len(testOnly))
	}
	if after.MemoryHits != before.MemoryHits || after.VariantHits != before.VariantHits {
		t.Errorf("the quick run recalled records: stats %+v, then %+v", before, after)
	}
}

// TestConcurrentRunsShareMemory runs overlapping selections from 8
// goroutines on one store-backed engine, so that records are read,
// remembered, recalled and measured at once (the race detector watches the
// memory). Every record must equal a store-less engine's.
func TestConcurrentRunsShareMemory(t *testing.T) {
	ref, err := mustNew(t, Config{Workers: 2}).CharacterizeArch(uarch.Skylake, RunOptions{Only: testOnly})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// The store holds all but the last variant, so a selection of that one
	// also measures.
	fill := mustNew(t, Config{Workers: 2, CacheDir: dir})
	if _, err := fill.CharacterizeArch(uarch.Skylake, RunOptions{Only: testOnly[:len(testOnly)-1]}); err != nil {
		t.Fatal(err)
	}

	e := mustNew(t, Config{Workers: 2, CacheDir: dir})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		// Pairs of neighbours for the first four goroutines, suffixes of
		// testOnly for the last four.
		only := testOnly[g%4:]
		if g < 4 {
			only = []string{testOnly[g], testOnly[(g+1)%len(testOnly)]}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				res, err := e.CharacterizeArch(uarch.Skylake, RunOptions{Only: only})
				if err != nil {
					t.Error(err)
					return
				}
				for _, name := range only {
					if !reflect.DeepEqual(res.Results[name], ref.Results[name]) {
						t.Errorf("goroutine %d, run %d: %s differs from the store-less record", g, i, name)
					}
				}
			}
		}()
	}
	wg.Wait()
	if e.Stats().MemoryHits == 0 {
		t.Error("no run was answered from memory")
	}
}
