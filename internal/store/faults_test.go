package store

// Fault-injection suite: every durability claim the store makes is forced
// here through errfs rather than asserted. The torn write, the full disk,
// the writer killed between temp-write, fsync and rename, the disk that
// keeps failing until the store degrades — each test creates the exact
// on-disk state the failure leaves behind, reopens the store over it and
// checks that no record is lost silently, no corruption is served, and
// recovery costs at most one re-measurement per interrupted entry.

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
	"time"

	"uopsinfo/internal/core"
	"uopsinfo/internal/store/errfs"
	"uopsinfo/internal/uarch"
)

// openFaulty opens a store over a fault-injecting filesystem.
func openFaulty(t *testing.T, dir string, opts Options) (*Store, *errfs.FS) {
	t.Helper()
	fsys := errfs.New()
	opts.FS = fsys
	opts.Log = t.Logf
	s, err := OpenOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, fsys
}

// reboot simulates a process restart after a crash: a fresh filesystem (the
// crashed state does not survive) and a fresh store over the same directory,
// whose startup sweep must restore consistency.
func reboot(t *testing.T, dir string, opts Options) (*Store, *errfs.FS) {
	t.Helper()
	return openFaulty(t, dir, opts)
}

func testRecord(name string) *core.InstrResult {
	return &core.InstrResult{
		Name:       name,
		Mnemonic:   name,
		Uops:       2,
		Ports:      core.PortUsage{uarch.NewPortSet(0, 1, 5, 6): 2},
		Throughput: core.ThroughputResult{Measured: 0.5, MeasuredSequenceLength: 8},
	}
}

// TestTornWriteQuarantinedOnRead forces the crash state DurabilityRename
// admits: a write that reported success but only persisted a prefix (the
// file was renamed into place but never synced). The torn entry must read as
// a miss, be counted and quarantined — and the slot must be re-savable.
func TestTornWriteQuarantinedOnRead(t *testing.T) {
	dir := t.TempDir()
	s, fsys := openFaulty(t, dir, Options{})
	key := testKey("blocking")

	fsys.Inject(errfs.Fault{Op: errfs.OpWrite, Path: "blocking-", Torn: true, TearAt: 10})
	if err := s.SaveBlocking(key, &BlockingRecord{}); err != nil {
		t.Fatalf("torn save reported the tear: %v", err)
	}
	// The file landed under its final name, 10 bytes long.
	info, err := os.Stat(filepath.Join(dir, key.filename(KindBlocking)))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != 10 {
		t.Fatalf("torn entry is %d bytes, want the 10-byte prefix", info.Size())
	}

	if _, ok := s.LoadBlocking(key); ok {
		t.Error("torn entry served as a hit")
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Quarantined != 1 {
		t.Errorf("torn entry not counted as corruption: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, key.filename(KindBlocking)+corruptSuffix)); err != nil {
		t.Errorf("torn entry not quarantined: %v", err)
	}
	// Exactly one re-measurement: the re-save recovers the slot.
	if err := s.SaveBlocking(key, &BlockingRecord{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.LoadBlocking(key); !ok {
		t.Error("re-save over the torn entry did not recover the slot")
	}
}

// TestDurableSaveSurvivesCrash pins what DurabilityFull buys: the entry is
// fsynced before the rename and the directory synced after it, so a
// completed save is readable after a crash — while DurabilityRename performs
// no sync at all.
func TestDurableSaveSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	s, fsys := openFaulty(t, dir, Options{Durability: DurabilityFull})
	key := testKey("blocking")
	rec := &BlockingRecord{SSE: []BlockingEntry{{Combo: "0156", Instr: "ADD_R64_R64", UopsOnCombo: 1}}}
	if err := s.SaveBlocking(key, rec); err != nil {
		t.Fatal(err)
	}
	if fsys.Ops(errfs.OpSync) == 0 || fsys.Ops(errfs.OpSyncDir) == 0 {
		t.Fatalf("durable save ran %d file syncs and %d dir syncs, want both > 0",
			fsys.Ops(errfs.OpSync), fsys.Ops(errfs.OpSyncDir))
	}
	fsys.Crash()

	after, _ := reboot(t, dir, Options{Durability: DurabilityFull})
	got, ok := after.LoadBlocking(key)
	if !ok {
		t.Fatal("durably saved entry lost across a crash")
	}
	if !reflect.DeepEqual(got, rec) {
		t.Errorf("entry did not survive the crash intact:\ngot  %+v\nwant %+v", got, rec)
	}

	cli, clifs := openFaulty(t, t.TempDir(), Options{})
	if err := cli.SaveBlocking(key, rec); err != nil {
		t.Fatal(err)
	}
	if n := clifs.Ops(errfs.OpSync) + clifs.Ops(errfs.OpSyncDir); n != 0 {
		t.Errorf("rename-only store performed %d sync operations, want 0", n)
	}
}

// TestCrashMidSaveCostsOneRemeasurement kills the writer at each step of the
// atomic write — mid-write, after the write but before the fsync completes,
// and at the rename — and kills a rename-only writer whose save returned
// before any byte of it reached the disk; it checks the reopened store is
// consistent: the interrupted entry reads as a plain miss (one
// re-measurement), not as corruption, and a re-save recovers it. A writer
// killed before the rename leaves its temp file, which is collected once
// stale; the save that returned leaves an empty entry, which the reopened
// store's sweep collects as debris.
func TestCrashMidSaveCostsOneRemeasurement(t *testing.T) {
	durable := Options{Durability: DurabilityFull}
	for _, tc := range []struct {
		name  string
		opts  Options
		fault errfs.Fault
		// empty: the save returns, having renamed an empty entry into
		// place, and the process is killed after it.
		empty bool
	}{
		{"killed mid-write", durable, errfs.Fault{Op: errfs.OpWrite, Path: "blocking-", Crash: true}, false},
		{"killed during fsync", durable, errfs.Fault{Op: errfs.OpSync, Path: "blocking-", Crash: true}, false},
		{"killed at rename", durable, errfs.Fault{Op: errfs.OpRename, Path: "blocking-", Crash: true}, false},
		{"killed before any byte reached the disk", Options{}, errfs.Fault{Op: errfs.OpWrite, Path: "blocking-", Torn: true}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, fsys := openFaulty(t, dir, tc.opts)
			key := testKey("blocking")
			fsys.Inject(tc.fault)
			err := s.SaveBlocking(key, &BlockingRecord{})
			switch {
			case tc.empty && err != nil:
				t.Fatalf("a save whose write was torn at zero bytes failed: %v", err)
			case tc.empty:
				fsys.Crash()
			case err == nil:
				t.Fatal("save across a crash reported success")
			}
			entry := filepath.Join(dir, key.filename(KindBlocking))
			if fi, err := os.Stat(entry); tc.empty != (err == nil) || tc.empty && fi.Size() != 0 {
				t.Fatalf("after the crash the entry file is %v (stat err: %v), want it empty: %v", fi, err, tc.empty)
			}

			after, _ := reboot(t, dir, tc.opts)
			if _, ok := after.LoadBlocking(key); ok {
				t.Fatal("interrupted save left a readable entry")
			}
			st := after.Stats()
			if st.Corrupt != 0 {
				t.Errorf("interrupted save read as corruption, want a plain miss: %+v", st)
			}
			if tc.empty && st.SweptDebris != 1 {
				t.Errorf("the sweep collected %d debris files, want the empty entry", st.SweptDebris)
			}
			// Exactly one re-measurement makes the store whole again.
			if err := after.SaveBlocking(key, &BlockingRecord{}); err != nil {
				t.Fatal(err)
			}
			if _, ok := after.LoadBlocking(key); !ok {
				t.Error("re-save after the crash did not recover the entry")
			}

			// The dead writer's temp file survives sweeps while fresh (it could
			// be a live writer's) and is collected once stale. A dead process
			// cannot clean up after itself, whichever step it died on.
			tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
			if err != nil {
				t.Fatal(err)
			}
			if tc.empty {
				if len(tmps) != 0 {
					t.Errorf("the save that returned left %d temp files, want 0", len(tmps))
				}
				return
			}
			if len(tmps) != 1 {
				t.Fatalf("crash left %d temp files, want 1", len(tmps))
			}
			old := time.Now().Add(-2 * staleTmpAge)
			if err := os.Chtimes(tmps[0], old, old); err != nil {
				t.Fatal(err)
			}
			swept, _ := reboot(t, dir, tc.opts)
			if _, err := os.Stat(tmps[0]); !os.IsNotExist(err) {
				t.Errorf("stale temp file of the dead writer survived the sweep (stat err: %v)", err)
			}
			if st := swept.Stats(); st.SweptDebris != 1 {
				t.Errorf("sweep reported %d debris files, want 1", st.SweptDebris)
			}
		})
	}
}

// TestENOSPCDegradesToReadOnly forces a full disk mid-save: the store must
// degrade to read-only immediately (not after failThreshold attempts — a
// full disk does not get better by retrying), keep serving reads, suppress
// further saves without failing them, and recover through a probe once
// space is back.
func TestENOSPCDegradesToReadOnly(t *testing.T) {
	dir := t.TempDir()
	s, fsys := openFaulty(t, dir, Options{})
	cached := testKey("blocking")
	if err := s.SaveBlocking(cached, &BlockingRecord{}); err != nil {
		t.Fatal(err)
	}

	fsys.Inject(errfs.Fault{Op: errfs.OpWrite, Err: syscall.ENOSPC, Sticky: true})
	victim := testKey("variant skipLatency=false").Digest()
	save := func() error { return s.SaveVariant(victim, "ADD_R64_R64", testRecord("ADD_R64_R64")) }
	if err := save(); err == nil {
		t.Fatal("save on a full disk reported success")
	}
	if mode := s.Mode(); mode != ModeReadOnly {
		t.Fatalf("one ENOSPC left mode %q, want immediate %q", mode, ModeReadOnly)
	}
	if st := s.Stats(); st.Degradations != 1 {
		t.Errorf("degradations = %d, want 1", st.Degradations)
	}

	// Degraded saves are suppressed, not failed: a lost cache write must not
	// fail the request that triggered it.
	if err := save(); err != nil {
		t.Fatalf("suppressed save returned an error: %v", err)
	}
	if st := s.Stats(); st.SavesSuppressed == 0 {
		t.Error("suppressed save not counted")
	}
	// Reads still serve: read-only, not dead.
	if _, ok := s.LoadBlocking(cached); !ok {
		t.Error("read-only store stopped serving cached entries")
	}

	// Space comes back; within probeEvery attempts a deterministic probe runs
	// for real, succeeds, and restores write capability.
	fsys.Heal()
	for i := 0; i < probeEvery+1; i++ {
		if err := save(); err != nil {
			t.Fatalf("save after heal: %v", err)
		}
	}
	if mode := s.Mode(); mode != ModeOK {
		t.Errorf("store did not recover after the disk healed: mode %q", mode)
	}
	if _, ok := s.LoadVariant(victim, "ADD_R64_R64"); !ok {
		t.Error("post-recovery save did not land")
	}
}

// TestRepeatedSaveFailuresDegrade checks the generic-error path to
// read-only: errors that are not obviously terminal (unlike ENOSPC) must
// fail failThreshold consecutive saves before the store gives up on writes.
func TestRepeatedSaveFailuresDegrade(t *testing.T) {
	s, fsys := openFaulty(t, t.TempDir(), Options{})
	fsys.Inject(errfs.Fault{Op: errfs.OpRename, Path: "blocking-", Sticky: true})
	key := testKey("blocking")
	for i := 1; i < failThreshold; i++ {
		if err := s.SaveBlocking(key, &BlockingRecord{}); err == nil {
			t.Fatalf("save %d succeeded through the injected fault", i)
		}
		if mode := s.Mode(); mode != ModeOK {
			t.Fatalf("store degraded after %d failures, want %d", i, failThreshold)
		}
	}
	if err := s.SaveBlocking(key, &BlockingRecord{}); err == nil {
		t.Fatal("save succeeded through the injected fault")
	}
	if mode := s.Mode(); mode != ModeReadOnly {
		t.Errorf("mode %q after %d consecutive save failures, want %q", mode, failThreshold, ModeReadOnly)
	}
}

// TestReadFailuresDegradeToComputeOnly checks the deepest degradation: when
// reads themselves keep failing (not missing — failing), the store goes
// compute-only, loads report misses instead of errors, and a probe restores
// reads once the disk recovers.
func TestReadFailuresDegradeToComputeOnly(t *testing.T) {
	s, fsys := openFaulty(t, t.TempDir(), Options{})
	key := testKey("blocking")
	if err := s.SaveBlocking(key, &BlockingRecord{}); err != nil {
		t.Fatal(err)
	}
	fsys.Inject(errfs.Fault{Op: errfs.OpReadFile, Path: "blocking-", Err: errors.New("io error"), Sticky: true})
	for i := 0; i < failThreshold; i++ {
		if _, ok := s.LoadBlocking(key); ok {
			t.Fatalf("load %d succeeded through the injected fault", i)
		}
	}
	if mode := s.Mode(); mode != ModeComputeOnly {
		t.Fatalf("mode %q after %d consecutive read failures, want %q", mode, failThreshold, ModeComputeOnly)
	}

	fsys.Heal()
	hit := false
	for i := 0; i < probeEvery+1; i++ {
		if _, ok := s.LoadBlocking(key); ok {
			hit = true
			break
		}
	}
	if !hit {
		t.Error("no read probe succeeded after the disk healed")
	}
	if mode := s.Mode(); mode != ModeOK {
		t.Errorf("store did not recover reads after the disk healed: mode %q", mode)
	}
}
