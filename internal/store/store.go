// Package store is the persistent result store of the characterization
// engine: it caches discovered blocking-instruction sets and individual
// per-variant measurements across process runs, so the CLI tools do not have
// to re-measure from scratch on every invocation — and it is built to do so
// for production lifetimes, not just test runs: writes are crash-safe,
// corruption is detected, counted and quarantined instead of silently
// shadowing a slot, disk budgets drive eviction, and a disk that starts
// failing degrades the store to read-only and then compute-only operation
// instead of failing requests.
//
// Entries are keyed by a content hash of everything a result depends on: the
// microarchitecture generation, the measurement-backend fingerprint
// (name@version), the measurement-protocol configuration, the full ISA
// variant set, and a scope string describing what was computed (blocking
// discovery vs. a characterization run and its options). Files are written
// atomically (temp file + rename; with Options.Durable additionally
// fsync-before-rename plus a directory sync) inside a versioned JSON
// envelope. A missing entry is a plain miss; an entry that exists but cannot
// be decoded is corruption — it is counted, renamed aside to "*.corrupt" so
// it stops shadowing the slot, and the caller falls through to
// recomputation.
//
// The store has two kinds of entries, each grouped on disk by the digest of
// its key (the digest prefix is part of every filename, which is what lets
// the startup sweep and the eviction policy reason about files per digest):
//
//   - blocking sets (KindBlocking), one entry per generation;
//   - per-variant entries (KindVariant), one file per instruction variant —
//     the file existing means the variant is measured. Evicting or
//     invalidating one variant only costs re-measuring that variant, and
//     runs with different variant selections share entries.
//
// All I/O goes through the storefs.FS seam, so every durability claim above
// is forced by fault-injection tests (internal/store/errfs) rather than
// asserted.
//
//uopslint:deterministic
package store

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"uopsinfo/internal/core"
	"uopsinfo/internal/isa"
	"uopsinfo/internal/measure"
	"uopsinfo/internal/store/storefs"
)

// Version is the on-disk format version. Bump it whenever the payload
// structures or the key derivation change incompatibly; old files then read
// as misses and are recomputed. (v2: backend fingerprint in the key,
// per-variant tier. v3: digest-grouped filenames, quarantine and size
// accounting — files from older versions, and the whole-ISA result,
// variant-index and segment files earlier v3 stores also held, are collected
// as debris by the startup sweep.) The version is folded into every digest,
// so bumping it also changes every run digest the service uses as an ETag.
const Version = 3

// Kinds of stored entries.
const (
	KindBlocking = "blocking"
	KindVariant  = "variant"
)

// Key identifies a cached entry by content: everything the cached value
// depends on goes into the hash, so a change to any component makes old
// entries unreachable instead of stale.
type Key struct {
	// Arch is the microarchitecture generation name.
	Arch string
	// Backend is the measurement-backend fingerprint ("name@version") the
	// results were measured on. Different backends — or different revisions
	// of one backend — never share entries.
	Backend string
	// Measure is the measurement-protocol configuration the results were
	// obtained with.
	Measure measure.Config
	// Variants is the full ISA variant set of the generation (the universe
	// the computation ran over). Order does not matter; the hash sorts a
	// copy.
	Variants []string
	// Scope distinguishes computations over the same universe, e.g. the
	// characterization options of a run.
	Scope string
}

// Digest is the precomputed content hash of a Key. Hashing a key is linear
// in the size of its variant universe, so callers that address many
// per-variant entries (one filename per instruction variant) compute the
// digest once and derive each filename from it in O(1).
type Digest struct {
	sum [sha256.Size]byte
}

// Digest hashes the key's content: everything the cached values depend on,
// except the entry kind and the per-entry discriminator, which filename
// mixes in on top.
func (k Key) Digest() Digest {
	h := sha256.New()
	fmt.Fprintf(h, "store-v%d\narch=%s\nbackend=%s\nscope=%s\n", Version, k.Arch, k.Backend, k.Scope)
	fmt.Fprintf(h, "measure short=%d long=%d rep=%d warmup=%v overheadCycles=%d overheadUops=%d\n",
		k.Measure.ShortCopies, k.Measure.LongCopies, k.Measure.Repetitions,
		k.Measure.Warmup, k.Measure.OverheadCycles, k.Measure.OverheadUops)
	variants := append([]string(nil), k.Variants...)
	sort.Strings(variants)
	for _, v := range variants {
		fmt.Fprintf(h, "variant=%s\n", v)
	}
	var d Digest
	h.Sum(d.sum[:0])
	return d
}

// String renders the digest as lowercase hex. It identifies a run's exact
// content universe (generation, backend fingerprint, measurement protocol,
// variant set, options), which makes it usable as an HTTP entity tag: two
// responses with the same digest and representation format are byte-identical.
func (d Digest) String() string {
	return fmt.Sprintf("%x", d.sum)
}

// prefixLen is the length (in hex characters) of the digest prefix embedded
// in every filename. 16 hex characters (8 bytes) keep accidental collisions
// out of reach while letting the sweep and the eviction policy group a
// directory listing by digest without any side index.
const prefixLen = 16

// Prefix returns the digest's filename prefix: the group identifier shared
// by every file stored under this digest.
func (d Digest) Prefix() string {
	return fmt.Sprintf("%x", d.sum[:prefixLen/2])
}

// filename derives a store filename from the digest, an entry kind and an
// extra discriminator (the variant name of per-variant entries). The name
// embeds the digest prefix — "<kind>-<digest prefix>-<entry hash>.json" — so
// files group by digest on disk.
func (d Digest) filename(kind, extra string) string {
	h := sha256.New()
	h.Write(d.sum[:])
	fmt.Fprintf(h, "kind=%s\nextra=%s\n", kind, extra)
	return fmt.Sprintf("%s-%s-%x.json", kind, d.Prefix(), h.Sum(nil)[:8])
}

// VariantFilename returns the store filename of the per-variant entry for
// one instruction variant. It is exported so tests and cache-maintenance
// tooling can evict individual variants.
func (d Digest) VariantFilename(name string) string {
	return d.filename(KindVariant, "variant="+name)
}

// filename derives the store filename for a kind from the key's content
// hash.
func (k Key) filename(kind string) string {
	return k.Digest().filename(kind, "")
}

// VariantFilename is the convenience form of Digest.VariantFilename for
// one-off lookups; loops over many variants should hold the Digest.
func (k Key) VariantFilename(name string) string {
	return k.Digest().VariantFilename(name)
}

// envelope is the on-disk wrapper around every payload.
type envelope struct {
	Version int             `json:"version"`
	Kind    string          `json:"kind"`
	Payload json.RawMessage `json:"payload"`
}

// Durability selects how hard save pushes an entry toward stable storage.
type Durability int

const (
	// DurabilityRename writes atomically (temp file + rename) but does not
	// sync: a concurrent reader never observes a partial file, but a crash
	// may lose — or tear — entries written shortly before it. The right
	// trade for one-shot CLI runs, where a lost cache entry costs one
	// re-measurement. Torn entries are detected and quarantined on the next
	// read. This is the zero value.
	DurabilityRename Durability = iota
	// DurabilityFull additionally fsyncs the entry before the rename and
	// syncs the directory after it, so a completed save survives a crash.
	// The default for uopsd, whose store is supposed to outlive months of
	// traffic (and any number of power cycles).
	DurabilityFull
)

// Options configures a store beyond its directory.
type Options struct {
	// FS is the filesystem seam all I/O goes through. Nil selects the real
	// filesystem (storefs.OS).
	FS storefs.FS
	// Durability selects the crash-safety level of saves; see the Durability
	// constants.
	Durability Durability
	// MaxBytes and MaxFiles, when positive, bound the store: when a save
	// pushes the totals past a budget, whole digests are evicted
	// least-recently-used (per-variant digests first) until the store fits
	// again. Zero means unbounded.
	MaxBytes int64
	MaxFiles int64
	// Log, if non-nil, receives lifecycle diagnostics that must not fail an
	// operation but should not vanish either: sweep debris counts,
	// quarantined corruption, eviction and degradation transitions.
	Log func(format string, args ...interface{})
}

// Store is a directory of cached characterization results.
type Store struct {
	dir      string
	fsys     storefs.FS
	durable  bool
	maxBytes int64
	maxFiles int64
	log      func(format string, args ...interface{})

	// mu guards the accounting (per-digest groups, per-tier totals), the
	// lifecycle counters and the degradation state. All counters are plain
	// ints under this one mutex — none are touched atomically anywhere.
	mu     sync.Mutex
	groups map[string]*group
	tiers  [tierCount]tierAcct
	stats  Stats
	health health
}

// Open returns a store rooted at dir with default options, creating the
// directory if necessary: real filesystem, rename-only durability, no
// budget. The startup sweep rebuilds the size accounting, validates every
// envelope (quarantining corruption) and collects temp/quarantine debris.
func Open(dir string) (*Store, error) {
	return OpenOptions(dir, Options{})
}

// OpenOptions is Open with explicit lifecycle options.
func OpenOptions(dir string, opts Options) (*Store, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = storefs.OS{}
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", dir, err)
	}
	s := &Store{
		dir:      dir,
		fsys:     fsys,
		durable:  opts.Durability == DurabilityFull,
		maxBytes: opts.MaxBytes,
		maxFiles: opts.MaxFiles,
		log:      opts.Log,
		groups:   make(map[string]*group),
	}
	debris := s.sweep()
	if debris > 0 {
		s.logf("store: startup sweep collected %d debris file(s) in %s", debris, dir)
	}
	// A store reopened with a lower budget than it was filled under trims at
	// startup; waiting for the first write would leave a read-mostly daemon
	// over budget indefinitely.
	s.mu.Lock()
	s.evictLocked("")
	s.mu.Unlock()
	return s, nil
}

func (s *Store) logf(format string, args ...interface{}) {
	if s.log != nil {
		s.log(format, args...)
	}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// digestLocks serializes variant writes and eviction per (directory, digest
// group) across every Store instance in the process: two engines — or two
// service handlers — sharing one cache directory through separate Store
// values must still contend on the same lock, or eviction could unlink a
// digest under another Store's writer. Eviction only TryLocks, so a digest
// is never evicted mid-write.
var digestLocks sync.Map // string (dir \x00 digest prefix) → *sync.Mutex

func (s *Store) digestLock(d Digest) *sync.Mutex {
	return s.prefixLock(d.Prefix())
}

func (s *Store) prefixLock(prefix string) *sync.Mutex {
	key := filepath.Clean(s.dir) + "\x00" + prefix
	lock, _ := digestLocks.LoadOrStore(key, &sync.Mutex{})
	return lock.(*sync.Mutex)
}

// load reads and validates the entry in file, decoding the payload into out.
// A missing file is a plain miss. A file that exists but cannot be decoded —
// unreadable, torn, not JSON, wrong kind, stale version — is corruption: it
// is counted, quarantined aside to "*.corrupt" (so it stops shadowing the
// slot) and reported as a miss. Only an envelope from a *newer* format
// version is left in place: that is another, newer process sharing the
// directory, not damage.
func (s *Store) load(d Digest, kind, file string, out interface{}) bool {
	if !s.readAllowed() {
		return false
	}
	path := filepath.Join(s.dir, file)
	data, err := s.fsys.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return false
		}
		s.readFailed(err)
		return false
	}
	s.readOK()
	s.touch(d.Prefix())
	if !s.decode(data, kind, out) {
		s.quarantine(file, fmt.Sprintf("undecodable %s entry", kind))
		return false
	}
	return true
}

// decode unwraps one envelope of the expected kind into out. It reports
// false for anything undecodable or mismatched — except a newer-version
// envelope, which is also reported false (a miss) but is not corruption;
// newerVersion distinguishes the two for load.
func (s *Store) decode(data []byte, kind string, out interface{}) bool {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return false
	}
	if env.Version != Version || env.Kind != kind {
		return false
	}
	return json.Unmarshal(env.Payload, out) == nil
}

// newerVersion reports whether data holds a well-formed envelope from a
// newer on-disk format version; such files belong to a newer process sharing
// the directory and must not be quarantined.
func newerVersion(data []byte) bool {
	var env envelope
	return json.Unmarshal(data, &env) == nil && env.Version > Version
}

// quarantine moves a corrupt entry aside to "<file>.corrupt": corruption is
// counted and surfaced instead of silently shadowing the slot forever, and
// the recomputed entry can be re-saved under the original name. A newer
// process's files are spared (see newerVersion); losing a rename race with a
// concurrent quarantiner is fine.
func (s *Store) quarantine(file, reason string) {
	path := filepath.Join(s.dir, file)
	if data, err := s.fsys.ReadFile(path); err == nil && newerVersion(data) {
		return
	}
	err := s.fsys.Rename(path, path+corruptSuffix)
	s.mu.Lock()
	s.stats.Corrupt++
	if err == nil {
		s.stats.Quarantined++
		s.unaccountLocked(file)
	}
	s.mu.Unlock()
	s.logf("store: quarantined %s: %s", file, reason)
}

// save writes an entry atomically: the envelope is written to a temporary
// file in the store directory and renamed into place, so concurrent readers
// never observe a partial file. With DurabilityFull the data is fsynced
// before the rename and the directory synced after it, so the completed save
// survives a crash. The temporary file is removed on every error path — a
// failed save must not leak it — and the startup sweep cleans up after
// writers that died before reaching either the rename or the cleanup.
//
// While the store is write-degraded (see Stats.Mode), saves are suppressed:
// they count as SavesSuppressed and return nil, and every probeEvery-th
// attempt runs for real to detect recovery.
func (s *Store) save(d Digest, kind, file string, payload interface{}) (err error) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("store: encoding %s entry: %w", kind, err)
	}
	data, err := json.Marshal(envelope{Version: Version, Kind: kind, Payload: raw})
	if err != nil {
		return fmt.Errorf("store: encoding %s envelope: %w", kind, err)
	}
	if !s.writeAllowed() {
		return nil
	}
	defer func() {
		if err != nil {
			s.saveFailed(err)
		} else {
			s.saveOK()
		}
	}()
	tmp, err := s.fsys.CreateTemp(s.dir, kind+"-*.tmp")
	if err != nil {
		return fmt.Errorf("store: writing %s entry: %w", kind, err)
	}
	defer func() {
		if err != nil {
			s.fsys.Remove(tmp.Name())
		}
	}()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: writing %s entry: %w", kind, err)
	}
	if s.durable {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return fmt.Errorf("store: syncing %s entry: %w", kind, err)
		}
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: writing %s entry: %w", kind, err)
	}
	if err := s.fsys.Rename(tmp.Name(), filepath.Join(s.dir, file)); err != nil {
		return fmt.Errorf("store: writing %s entry: %w", kind, err)
	}
	if s.durable {
		if err := s.fsys.SyncDir(s.dir); err != nil {
			return fmt.Errorf("store: syncing %s directory: %w", kind, err)
		}
	}
	s.account(d.Prefix(), kind, file, int64(len(data)))
	return nil
}

// BlockingEntry is the serialized form of one blocking instruction: the
// instruction is stored by variant name and rehydrated against the target
// generation's instruction set.
type BlockingEntry struct {
	Combo       string  `json:"combo"`
	Instr       string  `json:"instr"`
	Ports       []int   `json:"ports"`
	Throughput  float64 `json:"throughput,omitempty"`
	UopsOnCombo float64 `json:"uopsOnCombo"`
}

// BlockingRecord is the serialized form of a core.BlockingSet.
type BlockingRecord struct {
	SSE []BlockingEntry `json:"sse"`
	AVX []BlockingEntry `json:"avx"`
}

// recordEntries flattens one combination map, sorted by combination key so
// the serialized form is deterministic.
func recordEntries(m map[string]core.BlockingInstr) []BlockingEntry {
	entries := make([]BlockingEntry, 0, len(m))
	for combo, b := range m {
		entries = append(entries, BlockingEntry{
			Combo:       combo,
			Instr:       b.Instr.Name,
			Ports:       b.Ports,
			Throughput:  b.Throughput,
			UopsOnCombo: b.UopsOnCombo,
		})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Combo < entries[j].Combo })
	return entries
}

// RecordBlocking converts a blocking set into its serialized form.
func RecordBlocking(bs *core.BlockingSet) *BlockingRecord {
	return &BlockingRecord{SSE: recordEntries(bs.SSE), AVX: recordEntries(bs.AVX)}
}

// Restore rehydrates the record against an instruction set. It reports ok ==
// false if any recorded variant no longer exists in the set (the record then
// belongs to a different ISA and must be recomputed).
func (r *BlockingRecord) Restore(set *isa.Set) (*core.BlockingSet, bool) {
	restore := func(entries []BlockingEntry) (map[string]core.BlockingInstr, bool) {
		m := make(map[string]core.BlockingInstr, len(entries))
		for _, e := range entries {
			in := set.Lookup(e.Instr)
			if in == nil {
				return nil, false
			}
			m[e.Combo] = core.BlockingInstr{
				Instr:       in,
				Ports:       e.Ports,
				Throughput:  e.Throughput,
				UopsOnCombo: e.UopsOnCombo,
			}
		}
		return m, true
	}
	sse, ok := restore(r.SSE)
	if !ok {
		return nil, false
	}
	avx, ok := restore(r.AVX)
	if !ok {
		return nil, false
	}
	return &core.BlockingSet{SSE: sse, AVX: avx}, true
}

// LoadBlocking returns the cached blocking record for the key, or ok ==
// false on any kind of miss.
func (s *Store) LoadBlocking(key Key) (*BlockingRecord, bool) {
	var rec BlockingRecord
	if !s.load(key.Digest(), KindBlocking, key.filename(KindBlocking), &rec) {
		return nil, false
	}
	return &rec, true
}

// SaveBlocking persists a blocking record under the key.
func (s *Store) SaveBlocking(key Key, rec *BlockingRecord) error {
	return s.save(key.Digest(), KindBlocking, key.filename(KindBlocking), rec)
}

// LoadVariant returns the cached measurement record of one instruction
// variant, or ok == false on any kind of miss. Records round-trip exactly:
// float64 values are encoded with full round-trip precision, so XML rendered
// from cached records is byte-identical to XML rendered from the originals.
func (s *Store) LoadVariant(d Digest, name string) (*core.InstrResult, bool) {
	var rec core.InstrResult
	file := d.VariantFilename(name)
	if !s.load(d, KindVariant, file, &rec) {
		return nil, false
	}
	// A record that does not name the requested variant belongs to a
	// different universe (hash collision or tampering). It must not silently
	// shadow the slot — that would re-measure the variant forever —
	// so it is quarantined and counted like any other corruption.
	if rec.Name != name {
		s.quarantine(file, fmt.Sprintf("variant entry names %q, expected %q", rec.Name, name))
		return nil, false
	}
	return &rec, true
}

// LoadVariants returns the cached measurement records for every hit among
// names. Misses (absent, corrupt, degraded) are simply not in the returned
// map.
func (s *Store) LoadVariants(d Digest, names []string) map[string]*core.InstrResult {
	out := make(map[string]*core.InstrResult, len(names))
	for _, name := range names {
		if rec, ok := s.LoadVariant(d, name); ok {
			out[name] = rec
		}
	}
	return out
}

// SaveVariant persists the measurement record of one instruction variant in
// its own file. The digest lock coordinates with eviction, so a digest is
// never evicted mid-write.
func (s *Store) SaveVariant(d Digest, name string, rec *core.InstrResult) error {
	lock := s.digestLock(d)
	lock.Lock()
	defer lock.Unlock()
	return s.save(d, KindVariant, d.VariantFilename(name), rec)
}

// corruptSuffix marks quarantined files; staleTmpAge bounds how long temp
// and quarantine debris survives sweeps.
const corruptSuffix = ".corrupt"

// staleTmpAge is how old "*.tmp" and "*.corrupt" debris must be before the
// sweep collects it. In-flight saves hold their temp file for milliseconds,
// so the age gate keeps the sweep from unlinking a live writer's file —
// another store over the same directory may be mid-save right now — while
// still collecting what crashed writers left behind; quarantined files
// likewise stay inspectable for a while before they are garbage-collected.
const staleTmpAge = time.Hour

// suffix helpers shared by the sweep and the classifier.
func isTmp(name string) bool     { return strings.HasSuffix(name, ".tmp") }
func isCorrupt(name string) bool { return strings.HasSuffix(name, corruptSuffix) }
