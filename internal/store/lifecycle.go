package store

// This file is the store's lifecycle machinery: per-tier size accounting
// and the startup integrity sweep that rebuilds it, validating envelopes
// and collecting debris on the way. None of it affects what a healthy
// store returns.

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"time"
)

// now is the package's single wall-clock read. It only ages temp and
// quarantine debris for the startup sweep; it never reaches cache keys,
// digests or measured results, which stay pure functions of their inputs.
func now() time.Time {
	return time.Now() //uopslint:ignore wallclock debris-age gating of the startup sweep only; it never reaches cache keys or measurement results
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
func classify(name string) (class fileClass, kind string) {
	switch {
	case isTmp(name):
		return classTmp, ""
	case isCorrupt(name):
		return classCorrupt, ""
	}
	base, ok := strings.CutSuffix(name, ".json")
	if !ok {
		return classDebris, ""
	}
	for _, k := range []string{KindBlocking, KindVariant} {
		if rest, ok := strings.CutPrefix(base, k+"-"); ok {
			if pfx, h, ok := strings.Cut(rest, "-"); ok && isHex(pfx) && len(pfx) == prefixLen && isHex(h) {
				return classEntry, k
			}
			return classDebris, ""
		}
	}
	return classDebris, ""
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

// account records a completed write of file (size bytes) in the per-tier
// totals. Rewriting a file the store already accounted replaces its size.
func (s *Store) account(kind, file string, size int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := &s.tiers[kindTier(kind)]
	if old, ok := s.files[file]; ok {
		t.bytes -= old
		t.files--
	}
	s.files[file] = size
	t.bytes += size
	t.files++
}

// unaccountLocked forgets a quarantined file. Files the store never
// accounted — another process's writes — are ignored: the totals are this
// store's view, not a distributed invariant.
func (s *Store) unaccountLocked(file string) {
	size, ok := s.files[file]
	if !ok {
		return
	}
	delete(s.files, file)
	_, kind := classify(file)
	t := &s.tiers[kindTier(kind)]
	t.bytes -= size
	t.files--
}

// sweep is the startup integrity pass: it rebuilds the per-tier size
// accounting from the directory, validates every entry's envelope
// (quarantining corruption so it stops shadowing slots), collects debris —
// stale temp files of crashed writers, aged-out quarantine files,
// stale-format entries, well-formed envelopes of older store versions,
// empty entries a power cut left — and returns how many debris files it
// removed.
func (s *Store) sweep() int {
	entries, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		s.logf("store: sweep: listing %s: %v", s.dir, err)
		return 0
	}
	debris := 0
	remove := func(name string) {
		if err := s.fsys.Remove(filepath.Join(s.dir, name)); err != nil {
			s.logf("store: sweep: removing %s: %v", name, err)
		} else {
			debris++
		}
	}
	cutoff := now().Add(-staleTmpAge)
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		name := ent.Name()
		class, kind := classify(name)
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
				remove(name)
			}
		case classDebris:
			remove(name)
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
				switch {
				case newerVersion(data):
					// A newer process's file; not ours to touch.
				case len(data) == 0 || olderVersion(data):
					// A save whose data never reached the disk, or an older
					// store version's file: debris, not corruption.
					remove(name)
				default:
					s.quarantine(name, "invalid envelope found by startup sweep")
				}
				continue
			}
			s.account(kind, name, info.Size())
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
