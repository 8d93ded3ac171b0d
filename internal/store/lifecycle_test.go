package store

// Lifecycle suite: budget-driven LRU eviction of whole digests, its
// never-mid-write guarantee, and the size-flag parser.

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// keyForScope returns a distinct digest group per scope.
func keyForScope(scope string) Key {
	k := testKey(scope)
	return k
}

// entryPath is the on-disk path of a scope's blocking entry.
func entryPath(s *Store, scope string) string {
	return filepath.Join(s.Dir(), keyForScope(scope).filename(KindBlocking))
}

func saveBlockingScope(t *testing.T, s *Store, scope string) {
	t.Helper()
	if err := s.SaveBlocking(keyForScope(scope), &BlockingRecord{}); err != nil {
		t.Fatal(err)
	}
	// Eviction orders digests by last use; saves in one test must not tie.
	time.Sleep(2 * time.Millisecond)
}

// TestEvictionEnforcesFileBudget fills a 2-file store with three one-file
// digests: the oldest digest must be evicted whole, the newer ones kept, and
// the accounting must end within budget.
func TestEvictionEnforcesFileBudget(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenOptions(dir, Options{MaxFiles: 2, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	saveBlockingScope(t, s, "a")
	saveBlockingScope(t, s, "b")
	saveBlockingScope(t, s, "c")

	if _, err := os.Stat(entryPath(s, "a")); !os.IsNotExist(err) {
		t.Errorf("LRU digest survived eviction (stat err: %v)", err)
	}
	for _, scope := range []string{"b", "c"} {
		if _, err := os.Stat(entryPath(s, scope)); err != nil {
			t.Errorf("in-budget digest %q evicted: %v", scope, err)
		}
	}
	st := s.Stats()
	if st.EvictedDigests != 1 || st.EvictedFiles != 1 || st.EvictedBytes <= 0 {
		t.Errorf("eviction stats %+v, want exactly the one LRU digest", st)
	}
	if files := st.Blocking.Files; files != 2 {
		t.Errorf("store holds %d files after eviction, want 2", files)
	}
}

// TestEvictionEnforcesByteBudget drives the byte budget to its floor: with
// MaxBytes = 1, every save evicts all other digests, so only the most recent
// writer's group survives (the writing digest itself is never a candidate).
func TestEvictionEnforcesByteBudget(t *testing.T) {
	s, err := OpenOptions(t.TempDir(), Options{MaxBytes: 1, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for _, scope := range []string{"a", "b", "c"} {
		saveBlockingScope(t, s, scope)
	}
	for _, scope := range []string{"a", "b"} {
		if _, err := os.Stat(entryPath(s, scope)); !os.IsNotExist(err) {
			t.Errorf("digest %q survived the byte budget (stat err: %v)", scope, err)
		}
	}
	if _, err := os.Stat(entryPath(s, "c")); err != nil {
		t.Errorf("the writing digest itself was evicted: %v", err)
	}
	if st := s.Stats(); st.EvictedDigests != 2 {
		t.Errorf("evicted %d digests, want 2 (stats %+v)", st.EvictedDigests, st)
	}
}

// TestEvictionPrefersVariantTier pins the two-pass policy: a digest holding
// only per-variant files (cheap incremental re-measurement) is evicted
// before an older digest holding a whole-tier entry.
func TestEvictionPrefersVariantTier(t *testing.T) {
	s, err := OpenOptions(t.TempDir(), Options{MaxFiles: 2, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	saveBlockingScope(t, s, "old-blocking")
	vdig := testKey("variants").Digest()
	if err := s.SaveVariant(vdig, "ADD_R64_R64", testRecord("ADD_R64_R64")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond)
	saveBlockingScope(t, s, "new-blocking")

	if _, ok := s.LoadVariant(vdig, "ADD_R64_R64"); ok {
		t.Error("variant-only digest survived although it is the preferred victim")
	}
	if _, err := os.Stat(entryPath(s, "old-blocking")); err != nil {
		t.Errorf("older whole-tier digest evicted before the variant-only one: %v", err)
	}
}

// TestEvictionNeverRunsMidWrite holds a digest's per-digest lock — exactly
// what a writer holds mid-operation — and checks eviction
// skips the digest (leaving the store over budget) rather than unlinking
// files under a writer, then collects it normally once the lock is free.
func TestEvictionNeverRunsMidWrite(t *testing.T) {
	s, err := OpenOptions(t.TempDir(), Options{MaxFiles: 1, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	saveBlockingScope(t, s, "busy")
	busyPrefix := keyForScope("busy").Digest().Prefix()
	lock := s.prefixLock(busyPrefix)
	lock.Lock()
	saveBlockingScope(t, s, "other")
	if _, err := os.Stat(entryPath(s, "busy")); err != nil {
		t.Fatalf("digest evicted while its lock was held: %v", err)
	}
	if st := s.Stats(); st.EvictedDigests != 0 {
		t.Errorf("eviction claimed %d digests while the only candidate was locked", st.EvictedDigests)
	}
	lock.Unlock()

	// With the lock released, the next over-budget write collects it.
	saveBlockingScope(t, s, "third")
	if _, err := os.Stat(entryPath(s, "busy")); !os.IsNotExist(err) {
		t.Errorf("unlocked LRU digest survived eviction (stat err: %v)", err)
	}
}

// TestSweepRebuildsAccountingForEviction checks budgets hold across
// restarts: a reopened store rebuilds its per-digest accounting from disk
// (with file mtimes as the LRU clock), and a store opened with a budget
// below its current footprint trims at startup instead of waiting for the
// first write.
func TestSweepRebuildsAccountingForEviction(t *testing.T) {
	dir := t.TempDir()
	unbounded, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, scope := range []string{"a", "b", "c"} {
		saveBlockingScope(t, unbounded, scope)
	}
	// The rebuilt LRU clock is the file mtime; pin an unambiguous order
	// rather than depending on the filesystem's timestamp granularity.
	for i, scope := range []string{"a", "b", "c"} {
		when := time.Now().Add(time.Duration(i-3) * time.Hour)
		if err := os.Chtimes(entryPath(unbounded, scope), when, when); err != nil {
			t.Fatal(err)
		}
	}

	s, err := OpenOptions(dir, Options{MaxFiles: 2, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Blocking.Files != 2 || st.EvictedDigests != 1 {
		t.Fatalf("reopened budgeted store did not trim to budget: %+v", st)
	}
	// The mtime-rebuilt LRU clock picked the oldest entry.
	if _, err := os.Stat(entryPath(s, "a")); !os.IsNotExist(err) {
		t.Errorf("oldest digest survived the startup trim (stat err: %v)", err)
	}
	for _, scope := range []string{"b", "c"} {
		if _, err := os.Stat(entryPath(s, scope)); err != nil {
			t.Errorf("in-budget digest %q evicted at startup: %v", scope, err)
		}
	}
	// And the budget keeps holding for writes after the trim.
	saveBlockingScope(t, s, "d")
	if st := s.Stats(); st.Blocking.Files > 2 {
		t.Errorf("store holds %d files after a budgeted write, want <= 2", st.Blocking.Files)
	}
	if _, err := os.Stat(entryPath(s, "d")); err != nil {
		t.Errorf("the new write itself was evicted: %v", err)
	}
}

func TestParseSize(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true},
		{"1073741824", 1 << 30, true},
		{"512M", 512 << 20, true},
		{"1G", 1 << 30, true},
		{"2GiB", 2 << 30, true},
		{"16kb", 16 << 10, true},
		{" 4T ", 4 << 40, true},
		{"8388607T", 8388607 << 40, true},
		{"8388608T", 0, false},
		{"18014398509481985K", 0, false},
		{"", 0, false},
		{"-1", 0, false},
		{"1.5G", 0, false},
		{"10X", 0, false},
	} {
		got, err := ParseSize(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParseSize(%q) error = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseSize(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}
