package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"uopsinfo/internal/core"
	"uopsinfo/internal/measure"
	"uopsinfo/internal/uarch"
)

func testKey(scope string) Key {
	return Key{
		Arch:     "Skylake",
		Backend:  "pipesim@1",
		Measure:  measure.DefaultConfig(),
		Variants: []string{"ADD_R64_R64", "IMUL_R64_R64", "PXOR_XMM_XMM"},
		Scope:    scope,
	}
}

func openStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestKeyHashSensitivity(t *testing.T) {
	base := testKey("blocking")
	same := testKey("blocking")
	// The variant order must not matter.
	same.Variants = []string{"PXOR_XMM_XMM", "ADD_R64_R64", "IMUL_R64_R64"}
	if base.filename(KindBlocking) != same.filename(KindBlocking) {
		t.Error("variant order changed the key hash")
	}
	mutations := map[string]Key{}
	k := testKey("blocking")
	k.Arch = "Haswell"
	mutations["arch"] = k
	k = testKey("blocking")
	k.Scope = "result"
	mutations["scope"] = k
	k = testKey("blocking")
	k.Measure.Repetitions = 7
	mutations["measure config"] = k
	k = testKey("blocking")
	k.Backend = "pipesim@2"
	mutations["backend fingerprint"] = k
	k = testKey("blocking")
	k.Variants = append(k.Variants, "SHL_R64_I8")
	mutations["variant set"] = k
	for what, mk := range mutations {
		if mk.filename(KindBlocking) == base.filename(KindBlocking) {
			t.Errorf("changing the %s did not change the key hash", what)
		}
	}
	if base.filename(KindBlocking) == base.filename(KindVariant) {
		t.Error("blocking and variant entries share a filename")
	}
}

func TestBlockingRoundTrip(t *testing.T) {
	set := uarch.Get(uarch.Skylake).InstrSet()
	bs := &core.BlockingSet{
		SSE: map[string]core.BlockingInstr{
			"0156": {Instr: set.Lookup("ADD_R64_R64"), Ports: []int{0, 1, 5, 6}, Throughput: 0.25, UopsOnCombo: 1},
			"4":    {Instr: set.Lookup("MOV_M64_R64"), Ports: []int{4}, UopsOnCombo: 1},
		},
		AVX: map[string]core.BlockingInstr{
			"5": {Instr: set.Lookup("VPSHUFD_XMM_XMM_I8"), Ports: []int{5}, Throughput: 1, UopsOnCombo: 1},
		},
	}
	for name, b := range bs.SSE {
		if b.Instr == nil {
			t.Fatalf("test setup: SSE %s variant missing from Skylake", name)
		}
	}
	for name, b := range bs.AVX {
		if b.Instr == nil {
			t.Fatalf("test setup: AVX %s variant missing from Skylake", name)
		}
	}

	s := openStore(t)
	key := testKey("blocking")
	if err := s.SaveBlocking(key, RecordBlocking(bs)); err != nil {
		t.Fatal(err)
	}
	rec, ok := s.LoadBlocking(key)
	if !ok {
		t.Fatal("saved blocking record not found")
	}
	got, ok := rec.Restore(set)
	if !ok {
		t.Fatal("restore against the same instruction set failed")
	}
	if !reflect.DeepEqual(got, bs) {
		t.Errorf("blocking set did not round-trip:\ngot  %+v\nwant %+v", got, bs)
	}

	// Restoring against a set without the recorded variants must miss, not
	// fabricate entries: VPSHUFD does not exist on Nehalem.
	if _, ok := rec.Restore(uarch.Get(uarch.Nehalem).InstrSet()); ok {
		t.Error("restore against a different ISA should fail")
	}
}

// TestVariantRoundTrip checks the per-variant tier: records round-trip
// exactly under their own filenames, different variants of one key never
// collide, and a record that names a different variant reads as a miss.
func TestVariantRoundTrip(t *testing.T) {
	s := openStore(t)
	key := testKey("variant skipLatency=false")
	dig := key.Digest()
	rec := &core.InstrResult{
		Name:     "ADD_R64_R64",
		Mnemonic: "ADD",
		Uops:     1,
		Ports:    core.PortUsage{"0156": 1},
		Latency: core.LatencyResult{Pairs: []core.OperandPairLatency{
			{Source: 1, Dest: 0, SourceName: "op2", DestName: "op1", Cycles: 1.0 / 3.0, Notes: "chain"},
			{Source: 0, Dest: 0, SourceName: "op1", DestName: "op1", Cycles: 1, SameRegister: true},
		}},
		Throughput: core.ThroughputResult{Measured: 0.25, MeasuredSequenceLength: 8, Computed: 0.1 + 0.2},
	}
	skipped := &core.InstrResult{Name: "CPUID", Mnemonic: "CPUID", Skipped: "system instruction"}
	for _, want := range []*core.InstrResult{rec, skipped} {
		if err := s.SaveVariant(dig, want.Name, want); err != nil {
			t.Fatal(err)
		}
		got, ok := s.LoadVariant(dig, want.Name)
		if !ok {
			t.Fatalf("saved variant record %s not found", want.Name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("variant record did not round-trip (float precision?):\ngot  %+v\nwant %+v", got, want)
		}
	}
	if _, ok := s.LoadVariant(dig, "IMUL_R64_R64"); ok {
		t.Error("record found under a different variant name")
	}
	if key.VariantFilename("ADD_R64_R64") == key.VariantFilename("IMUL_R64_R64") {
		t.Error("different variants share a filename")
	}
	// The one-off Key form and the precomputed Digest form must agree.
	if key.VariantFilename("ADD_R64_R64") != dig.VariantFilename("ADD_R64_R64") {
		t.Error("Key.VariantFilename and Digest.VariantFilename disagree")
	}

	// A record whose payload names a different variant (e.g. a corrupted or
	// hand-moved file) must read as a miss, not be served under the wrong
	// name — and it must be quarantined aside, not left to shadow the slot
	// (and force a re-measurement) forever.
	wrong := &core.InstrResult{Name: "IMUL_R64_R64", Mnemonic: "IMUL"}
	if err := s.save(dig, KindVariant, key.VariantFilename("ADD_R64_R64"), wrong); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.LoadVariant(dig, "ADD_R64_R64"); ok {
		t.Error("mis-named variant record was not treated as a miss")
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Quarantined != 1 {
		t.Errorf("mis-named record not counted as corruption: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), key.VariantFilename("ADD_R64_R64")+corruptSuffix)); err != nil {
		t.Errorf("mis-named record was not quarantined: %v", err)
	}
	// The quarantined slot is re-savable.
	if err := s.SaveVariant(dig, rec.Name, rec); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.LoadVariant(dig, rec.Name); !ok {
		t.Error("re-saving over a quarantined slot did not recover the entry")
	}
}

// TestCorruptAndMismatchedFilesAreMisses checks the fall-through: a
// truncated file, non-JSON garbage, a version bump and a kind mismatch must
// all read as misses rather than errors — and everything except the
// future-version file (another, newer process's entry, not damage) must be
// counted as corruption and quarantined aside instead of silently
// shadowing the slot.
func TestCorruptAndMismatchedFilesAreMisses(t *testing.T) {
	s := openStore(t)
	key := testKey("blocking")
	rec := &BlockingRecord{SSE: []BlockingEntry{{Combo: "0156", Instr: "ADD_R64_R64", Ports: []int{0, 1, 5, 6}, UopsOnCombo: 1}}}
	if err := s.SaveBlocking(key, rec); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.Dir(), key.filename(KindBlocking))

	write := func(data []byte) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	write([]byte("not json at all"))
	if _, ok := s.LoadBlocking(key); ok {
		t.Error("garbage file was not treated as a miss")
	}

	// Re-save to get a valid file for the truncation/version/kind checks.
	if err := s.SaveBlocking(key, rec); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	write(data[:len(data)/2])
	if _, ok := s.LoadBlocking(key); ok {
		t.Error("truncated file was not treated as a miss")
	}

	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	env.Version = Version + 1
	bumped, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	write(bumped)
	if _, ok := s.LoadBlocking(key); ok {
		t.Error("future-version file was not treated as a miss")
	}
	// A future-version file belongs to a newer process sharing the
	// directory: it is a miss but must NOT be quarantined.
	if _, err := os.Stat(path); err != nil {
		t.Errorf("future-version file was quarantined: %v", err)
	}
	if st := s.Stats(); st.Corrupt != 2 {
		t.Errorf("future-version file counted as corruption: %+v", st)
	}

	env.Version = Version
	env.Kind = KindVariant
	wrongKind, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	write(wrongKind)
	if _, ok := s.LoadBlocking(key); ok {
		t.Error("kind-mismatched file was not treated as a miss")
	}

	// Garbage, truncation and the kind mismatch are three corruption
	// events, each quarantined aside under "*.corrupt".
	if st := s.Stats(); st.Corrupt != 3 || st.Quarantined != 3 {
		t.Errorf("corruption accounting wrong (want 3 corrupt, 3 quarantined): %+v", st)
	}
	if _, err := os.Stat(path + corruptSuffix); err != nil {
		t.Errorf("corrupt file was not quarantined: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("quarantine left the corrupt file in place (stat err: %v)", err)
	}

	// After recomputation the entry can be re-saved over the quarantined
	// slot.
	if err := s.SaveBlocking(key, rec); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.LoadBlocking(key); !ok || !reflect.DeepEqual(got, rec) {
		t.Error("re-saving over a corrupt file did not recover the entry")
	}
}

// TestVariantIndexConcurrentWriters checks that concurrent writers of one
// digest never lose each other's per-variant entries. The digest's variant
// index is the set of its variant files, so every variant saved by any of
// the writers — whether they share one Store or each open their own over the
// same directory, as two engines or two service handlers would — must load.
func TestVariantIndexConcurrentWriters(t *testing.T) {
	dig := testKey("variant skipLatency=false").Digest()
	const writers = 16
	names := make([]string, writers)
	for i := range names {
		names[i] = fmt.Sprintf("VARIANT_%02d", i)
	}
	for _, mode := range []string{"shared store", "store per writer"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			shared, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for _, name := range names {
				wg.Add(1)
				go func(name string) {
					defer wg.Done()
					s := shared
					if mode == "store per writer" {
						var err error
						if s, err = Open(dir); err != nil {
							t.Error(err)
							return
						}
					}
					if err := s.SaveVariant(dig, name, testRecord(name)); err != nil {
						t.Error(err)
					}
				}(name)
			}
			wg.Wait()
			got := shared.LoadVariants(dig, names)
			for _, name := range names {
				if !reflect.DeepEqual(got[name], testRecord(name)) {
					t.Errorf("variant %s written by a concurrent writer loads as %+v", name, got[name])
				}
			}
			if len(got) != writers {
				t.Errorf("loaded %d variants, want %d", len(got), writers)
			}
		})
	}
}

// TestOpenSweepsStaleTempFiles checks that opening a store removes temporary
// files orphaned by a writer that died between CreateTemp and the rename —
// but only stale ones: a fresh temp file may belong to a save in flight in
// another store over the same directory and must survive the sweep.
func TestOpenSweepsStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	// A committed entry written by a real store must survive every sweep.
	first, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("blocking")
	if err := first.SaveBlocking(key, &BlockingRecord{}); err != nil {
		t.Fatal(err)
	}
	keep := filepath.Join(dir, key.filename(KindBlocking))

	stale := filepath.Join(dir, "blocking-12345.tmp")
	if err := os.WriteFile(stale, []byte("half an envelope"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * staleTmpAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(dir, "variant-67890.tmp")
	if err := os.WriteFile(fresh, []byte("in flight"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A file from an older on-disk format version (v2 names had no digest
	// prefix) is stale-format debris regardless of age.
	v2 := filepath.Join(dir, "result-deadbeefdeadbeefdeadbeefdeadbeef.json")
	if err := os.WriteFile(v2, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale temp file survived Open (stat err: %v)", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("sweep deleted a fresh (possibly live) temp file: %v", err)
	}
	if _, err := os.Stat(v2); !os.IsNotExist(err) {
		t.Errorf("stale-format entry survived Open (stat err: %v)", err)
	}
	if _, err := os.Stat(keep); err != nil {
		t.Errorf("sweep touched a committed entry: %v", err)
	}
	// The sweep reports what it collected: the stale temp file and the
	// stale-format entry, not the live entry or the fresh temp file.
	if st := s.Stats(); st.SweptDebris != 2 {
		t.Errorf("sweep reported %d debris files, want 2 (stats %+v)", st.SweptDebris, st)
	}
	// And it rebuilt the size accounting from the surviving entry.
	if st := s.Stats(); st.Blocking.Files != 1 || st.Blocking.Bytes <= 0 {
		t.Errorf("sweep did not rebuild blocking-tier accounting: %+v", s.Stats())
	}
}

// TestOpenSweepsRetiredEntryKinds upgrades a store written by an earlier
// version of the current format, which also kept whole-ISA result files, a
// per-digest variant index and packed segment files next to the loose
// entries. Opening it must collect those three as debris — not count them as
// corruption — and keep serving the loose variant and blocking entries.
func TestOpenSweepsRetiredEntryKinds(t *testing.T) {
	dir := t.TempDir()
	bkey := testKey("blocking")
	vdig := testKey("variant skipLatency=false").Digest()
	rdig := testKey("result only=ADD_R64_R64").Digest()
	encode := func(kind string, payload interface{}) []byte {
		t.Helper()
		raw, err := json.Marshal(payload)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(envelope{Version: Version, Kind: kind, Payload: raw})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	write := func(file string, data []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, file), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	blocking := &BlockingRecord{SSE: []BlockingEntry{{Combo: "0156", Instr: "ADD_R64_R64", UopsOnCombo: 1}}}
	write(bkey.filename(KindBlocking), encode(KindBlocking, blocking))
	variant := encode(KindVariant, testRecord("ADD_R64_R64"))
	write(vdig.VariantFilename("ADD_R64_R64"), variant)

	res := core.NewArchResult("Skylake")
	res.Results["ADD_R64_R64"] = testRecord("ADD_R64_R64")
	index := map[string]interface{}{"digest": vdig.String(), "entries": map[string]bool{"ADD_R64_R64": true}}
	header := encode("segment", map[string]interface{}{"digest": vdig.String(), "seq": 0, "count": 1})
	retired := map[string][]byte{
		rdig.filename("result", ""):                  encode("result", res),
		vdig.filename("varindex", ""):                encode("varindex", index),
		"segment-" + vdig.Prefix() + "-00000000.seg": append(append(append(header, '\n'), variant...), '\n'),
	}
	for name, data := range retired {
		write(name, data)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name := range retired {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("retired %s survived Open (stat err: %v)", name, err)
		}
	}
	st := s.Stats()
	if st.SweptDebris != int64(len(retired)) || st.Corrupt != 0 || st.Quarantined != 0 {
		t.Errorf("sweep stats %+v, want %d debris and no corruption", st, len(retired))
	}
	if got, ok := s.LoadBlocking(bkey); !ok || !reflect.DeepEqual(got, blocking) {
		t.Errorf("blocking entry after the upgrade sweep = %+v (ok=%v), want %+v", got, ok, blocking)
	}
	if got, ok := s.LoadVariant(vdig, "ADD_R64_R64"); !ok || !reflect.DeepEqual(got, testRecord("ADD_R64_R64")) {
		t.Errorf("variant entry after the upgrade sweep = %+v (ok=%v)", got, ok)
	}
}

// TestSaveFailureRemovesTempFile checks the error paths of the atomic write:
// a save whose final rename fails must report the error and leave no
// temporary file behind.
func TestSaveFailureRemovesTempFile(t *testing.T) {
	s := openStore(t)
	key := testKey("blocking")
	// A directory squatting on the destination filename makes the rename
	// fail after the temp file was successfully written and closed.
	if err := os.Mkdir(filepath.Join(s.Dir(), key.filename(KindBlocking)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveBlocking(key, &BlockingRecord{}); err == nil {
		t.Fatal("save over a directory succeeded")
	}
	tmps, err := filepath.Glob(filepath.Join(s.Dir(), "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Errorf("failed save leaked temp files: %v", tmps)
	}
}

// TestSaveLeavesNoTempFiles checks the atomic-write path cleans up after
// itself: after a save, the directory contains only the final entry.
func TestSaveLeavesNoTempFiles(t *testing.T) {
	s := openStore(t)
	key := testKey("blocking")
	if err := s.SaveBlocking(key, &BlockingRecord{}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != key.filename(KindBlocking) {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("store directory contains %v, want exactly [%s]", names, key.filename(KindBlocking))
	}
}
