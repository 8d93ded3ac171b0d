package store

// This file is the store's lifecycle machinery: per-digest size accounting,
// the startup integrity sweep that rebuilds it (validating envelopes and
// collecting debris on the way), and budget-driven LRU eviction of whole
// digests. None of it affects what a healthy, under-budget store returns —
// it only decides which cold entries stop existing.

import (
	"encoding/json"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// now is the package's single wall-clock read. Recency only orders LRU
// eviction and gates debris collection; it never reaches cache keys,
// digests or measured results, which stay pure functions of their inputs.
func now() time.Time {
	return time.Now() //uopslint:ignore wallclock recency only orders LRU eviction and debris-age gating; it never reaches cache keys or measurement results
}

// tiers of the size accounting, one per entry kind.
type tier int

const (
	tierBlocking tier = iota
	tierVariant
	tierCount
)

func kindTier(kind string) tier {
	if kind == KindBlocking {
		return tierBlocking
	}
	return tierVariant
}

type tierAcct struct {
	bytes int64
	files int64
}

// group is the accounting of one digest: every store file carrying the
// digest's filename prefix, and when the digest was last read or written
// (the LRU clock of eviction).
type group struct {
	files   map[string]int64 // filename → size
	lastUse time.Time
}

// fileClass is what a directory entry is to the sweep.
type fileClass int

const (
	classEntry   fileClass = iota // JSON entry of a current-format kind
	classTmp                      // in-flight or crashed writer's temp file
	classCorrupt                  // quarantined corruption
	classDebris                   // nothing the current format produces
)

// classify parses a store filename: current-format entries are
// "<kind>-<digest prefix>-<entry hash>.json". Anything else — including
// entries of older store versions and kinds the store no longer writes — is
// temp, quarantine or stale-format debris.
func classify(name string) (class fileClass, kind, prefix string) {
	switch {
	case isTmp(name):
		return classTmp, "", ""
	case isCorrupt(name):
		return classCorrupt, "", ""
	}
	base, ok := strings.CutSuffix(name, ".json")
	if !ok {
		return classDebris, "", ""
	}
	for _, k := range []string{KindBlocking, KindVariant} {
		if rest, ok := strings.CutPrefix(base, k+"-"); ok {
			if pfx, h, ok := strings.Cut(rest, "-"); ok && isHex(pfx) && len(pfx) == prefixLen && isHex(h) {
				return classEntry, k, pfx
			}
			return classDebris, "", ""
		}
	}
	return classDebris, "", ""
}

func isHex(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ensureGroupLocked returns the digest group, creating it empty.
func (s *Store) ensureGroupLocked(prefix string) *group {
	g := s.groups[prefix]
	if g == nil {
		g = &group{files: make(map[string]int64)}
		s.groups[prefix] = g
	}
	return g
}

// account records a completed write of file (newSize bytes) in the digest
// group and per-tier totals, refreshes the group's LRU clock, and runs
// eviction if the write pushed the store past a budget. The writing digest
// itself is never an eviction candidate.
func (s *Store) account(prefix, kind, file string, newSize int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.ensureGroupLocked(prefix)
	t := kindTier(kind)
	if old, ok := g.files[file]; ok {
		s.tiers[t].bytes -= old
		s.tiers[t].files--
	}
	g.files[file] = newSize
	g.lastUse = now()
	s.tiers[t].bytes += newSize
	s.tiers[t].files++
	s.evictLocked(prefix)
}

// unaccountLocked forgets a removed (or quarantined) file. Files the store
// never accounted — another process's writes — are ignored; budgets are
// per-accounting-view, not a distributed invariant.
func (s *Store) unaccountLocked(file string) int64 {
	class, kind, prefix := classify(file)
	if class != classEntry {
		return 0
	}
	g := s.groups[prefix]
	if g == nil {
		return 0
	}
	size, ok := g.files[file]
	if !ok {
		return 0
	}
	delete(g.files, file)
	t := kindTier(kind)
	s.tiers[t].bytes -= size
	s.tiers[t].files--
	if len(g.files) == 0 {
		delete(s.groups, prefix)
	}
	return size
}

// touch refreshes the LRU clock of a digest the caller just read. Only
// digests the accounting knows are touched; reads of files another process
// wrote do not conjure empty groups.
func (s *Store) touch(prefix string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if g := s.groups[prefix]; g != nil {
		g.lastUse = now()
	}
}

// totalsLocked sums the per-tier accounting.
func (s *Store) totalsLocked() (bytes, files int64) {
	for _, t := range s.tiers {
		bytes += t.bytes
		files += t.files
	}
	return bytes, files
}

// overBudgetLocked reports whether a configured budget is exceeded.
func (s *Store) overBudgetLocked() bool {
	if s.maxBytes <= 0 && s.maxFiles <= 0 {
		return false
	}
	bytes, files := s.totalsLocked()
	return (s.maxBytes > 0 && bytes > s.maxBytes) || (s.maxFiles > 0 && files > s.maxFiles)
}

// evictLocked brings the store back under budget by evicting whole digests
// least-recently-used: first only their per-variant files (whose loss costs
// incremental re-measurement), then, if still over, everything. A digest
// whose per-digest lock is held is skipped — eviction never races a writer
// mid-save — as is skip, the digest whose write triggered the check
// (evicting what was just written would turn an undersized budget into a
// thrash loop).
func (s *Store) evictLocked(skip string) {
	if !s.overBudgetLocked() {
		return
	}
	type cand struct {
		prefix  string
		lastUse time.Time
	}
	var cands []cand
	for prefix, g := range s.groups {
		if prefix == skip {
			continue
		}
		cands = append(cands, cand{prefix, g.lastUse})
	}
	sort.Slice(cands, func(i, j int) bool {
		if !cands[i].lastUse.Equal(cands[j].lastUse) {
			return cands[i].lastUse.Before(cands[j].lastUse)
		}
		return cands[i].prefix < cands[j].prefix
	})
	for _, variantOnly := range []bool{true, false} {
		for _, c := range cands {
			if !s.overBudgetLocked() {
				return
			}
			if s.groups[c.prefix] == nil {
				continue // fully evicted by the previous pass
			}
			s.evictGroupLocked(c.prefix, variantOnly)
		}
	}
}

// evictGroupLocked evicts one digest's files (only its per-variant files
// when variantOnly). The per-digest lock is TryLocked: if a writer holds
// it, the digest is simply skipped this round.
func (s *Store) evictGroupLocked(prefix string, variantOnly bool) {
	lock := s.prefixLock(prefix)
	if !lock.TryLock() {
		return
	}
	defer lock.Unlock()
	g := s.groups[prefix]
	if g == nil {
		return
	}
	names := make([]string, 0, len(g.files))
	for name := range g.files {
		names = append(names, name)
	}
	sort.Strings(names)
	evicted := 0
	for _, name := range names {
		if _, kind, _ := classify(name); variantOnly && kindTier(kind) == tierBlocking {
			continue
		}
		err := s.fsys.Remove(filepath.Join(s.dir, name))
		if err != nil {
			s.logf("store: evicting %s: %v", name, err)
		}
		// Forget the file either way: if the remove failed the file is
		// unreachable debris at worst, and the next sweep recounts.
		s.stats.EvictedBytes += s.unaccountLocked(name)
		s.stats.EvictedFiles++
		evicted++
	}
	if evicted > 0 && s.groups[prefix] == nil {
		s.stats.EvictedDigests++
		s.logf("store: evicted digest %s (budget)", prefix)
	}
}

// sweep is the startup integrity pass: it rebuilds the size accounting from
// the directory, validates every entry's envelope (quarantining corruption
// so it stops shadowing slots), collects debris — stale temp files of
// crashed writers, aged-out quarantine files, stale-format entries — and
// returns how many debris files it removed.
func (s *Store) sweep() int {
	entries, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		s.logf("store: sweep: listing %s: %v", s.dir, err)
		return 0
	}
	debris := 0
	cutoff := now().Add(-staleTmpAge)
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		name := ent.Name()
		class, kind, prefix := classify(name)
		switch class {
		case classTmp, classCorrupt:
			info, err := ent.Info()
			if err != nil {
				// A debris candidate that cannot be statted is left for the
				// next sweep — but never silently.
				s.logf("store: sweep: stat %s: %v", name, err)
				continue
			}
			if info.ModTime().Before(cutoff) {
				if err := s.fsys.Remove(filepath.Join(s.dir, name)); err != nil {
					s.logf("store: sweep: removing %s: %v", name, err)
				} else {
					debris++
				}
			}
		case classDebris:
			if err := s.fsys.Remove(filepath.Join(s.dir, name)); err != nil {
				s.logf("store: sweep: removing %s: %v", name, err)
			} else {
				debris++
			}
		case classEntry:
			info, err := ent.Info()
			if err != nil {
				s.logf("store: sweep: stat %s: %v", name, err)
				continue
			}
			data, err := s.fsys.ReadFile(filepath.Join(s.dir, name))
			if err != nil {
				s.logf("store: sweep: reading %s: %v", name, err)
				continue
			}
			if !validEnvelope(data, kind) {
				if newerVersion(data) {
					continue // a newer process's file; not ours to touch
				}
				s.quarantine(name, "invalid envelope found by startup sweep")
				continue
			}
			s.mu.Lock()
			g := s.ensureGroupLocked(prefix)
			g.files[name] = info.Size()
			if g.lastUse.Before(info.ModTime()) {
				g.lastUse = info.ModTime()
			}
			t := kindTier(kind)
			s.tiers[t].bytes += info.Size()
			s.tiers[t].files++
			s.mu.Unlock()
		}
	}
	s.mu.Lock()
	s.stats.SweptDebris += int64(debris)
	s.mu.Unlock()
	return debris
}

// validEnvelope reports whether data is a well-formed current-version
// envelope of the expected kind.
func validEnvelope(data []byte, kind string) bool {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return false
	}
	return env.Version == Version && env.Kind == kind && len(env.Payload) > 0
}
