package store

// This file is the store's graceful-degradation state machine and its
// observable surface (Stats, Mode). A store whose disk starts failing must
// not fail characterization requests — results can always be re-measured —
// so instead of surfacing errors the store sheds capabilities: first writes
// (read-only: cached entries still serve, new ones are dropped), then reads
// too (compute-only: the engine measures everything). Recovery is probed
// deterministically by operation count, not by timer: every probeEvery-th
// suppressed operation runs for real, and one success restores the
// capability.

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"syscall"
)

// Store modes, from healthy to fully degraded, as reported by Mode and
// surfaced through /healthz.
const (
	ModeOK          = "ok"
	ModeReadOnly    = "read-only"
	ModeComputeOnly = "compute-only"
)

const (
	// failThreshold is how many consecutive failures of a capability
	// (saves, or non-miss reads) degrade it. Unwritable-disk errors
	// (ENOSPC, EROFS) degrade writes immediately — retrying seven more
	// times cannot help a full disk.
	failThreshold = 8
	// probeEvery is the deterministic recovery probe: every probeEvery-th
	// operation that would be suppressed runs for real.
	probeEvery = 64
)

// health is the degradation state, guarded by Store.mu.
type health struct {
	writeFails int // consecutive save failures
	readFails  int // consecutive non-miss read failures
	writesDown bool
	readsDown  bool
	writeProbe int // suppressed-save counter driving recovery probes
	readProbe  int
}

// diskUnwritable reports errors no amount of retrying fixes: a full or
// read-only filesystem.
func diskUnwritable(err error) bool {
	return errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EROFS)
}

// writeAllowed reports whether a save should run: always while healthy;
// while write-degraded only the deterministic recovery probes run, and
// everything else is suppressed (counted, and reported as success — losing
// a cache write is not an error worth failing a request over).
func (s *Store) writeAllowed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.health.writesDown {
		return true
	}
	s.health.writeProbe++
	if s.health.writeProbe%probeEvery == 0 {
		return true
	}
	s.stats.SavesSuppressed++
	return false
}

func (s *Store) saveFailed(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.health.writeFails++
	if (diskUnwritable(err) || s.health.writeFails >= failThreshold) && !s.health.writesDown {
		s.health.writesDown = true
		s.health.writeProbe = 0
		s.stats.Degradations++
		s.logf("store: degraded to %s after save failure: %v", s.modeLocked(), err)
	}
}

func (s *Store) saveOK() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.health.writeFails = 0
	if s.health.writesDown {
		s.health.writesDown = false
		s.logf("store: saves recovered; mode %s", s.modeLocked())
	}
}

// readAllowed is writeAllowed for loads: while read-degraded everything but
// the probes reports a miss, and the engine re-measures.
func (s *Store) readAllowed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.health.readsDown {
		return true
	}
	s.health.readProbe++
	return s.health.readProbe%probeEvery == 0
}

// readFailed records a read failure that was not a miss (callers filter
// fs.ErrNotExist, which is the normal cold-cache path).
func (s *Store) readFailed(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.health.readFails++
	if s.health.readFails >= failThreshold && !s.health.readsDown {
		s.health.readsDown = true
		s.health.readProbe = 0
		s.stats.Degradations++
		s.logf("store: degraded to %s after read failure: %v", s.modeLocked(), err)
	}
}

func (s *Store) readOK() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.health.readFails = 0
	if s.health.readsDown {
		s.health.readsDown = false
		s.logf("store: reads recovered; mode %s", s.modeLocked())
	}
}

func (s *Store) modeLocked() string {
	switch {
	case s.health.readsDown:
		return ModeComputeOnly
	case s.health.writesDown:
		return ModeReadOnly
	default:
		return ModeOK
	}
}

// Mode returns the store's current degradation mode: ModeOK, ModeReadOnly
// (saves suppressed) or ModeComputeOnly (loads suppressed too).
func (s *Store) Mode() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.modeLocked()
}

// TierStats is the size accounting of one storage tier.
type TierStats struct {
	Bytes int64 `json:"bytes"`
	Files int64 `json:"files"`
}

// Stats is the store's observable lifecycle state: per-tier sizes, the
// degradation mode, and monotonic counters for corruption, quarantines,
// evictions, swept debris, suppressed saves and mode transitions. It flows
// through engine.Stats to /v1/stats and /metrics.
type Stats struct {
	Mode     string    `json:"mode"`
	Blocking TierStats `json:"blocking"`
	Variant  TierStats `json:"variant"`

	Corrupt        int64 `json:"corrupt"`
	Quarantined    int64 `json:"quarantined"`
	EvictedDigests int64 `json:"evictedDigests"`
	EvictedFiles   int64 `json:"evictedFiles"`
	EvictedBytes   int64 `json:"evictedBytes"`
	// Compactions is always 0.
	//
	// Deprecated: the store keeps one file per variant and never compacts;
	// the field and its JSON key remain for existing readers.
	Compactions     int64 `json:"compactions"`
	SweptDebris     int64 `json:"sweptDebris"`
	SavesSuppressed int64 `json:"savesSuppressed"`
	Degradations    int64 `json:"degradations"`
}

// Stats returns a consistent snapshot of the store's lifecycle state.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Mode = s.modeLocked()
	st.Blocking = TierStats{Bytes: s.tiers[tierBlocking].bytes, Files: s.tiers[tierBlocking].files}
	st.Variant = TierStats{Bytes: s.tiers[tierVariant].bytes, Files: s.tiers[tierVariant].files}
	return st
}

// ParseSize parses a human-friendly byte size for the -store-max-bytes
// flags: a plain integer, or one with a binary suffix K/M/G/T (optionally
// written KB/KiB etc., case-insensitive).
func ParseSize(s string) (int64, error) {
	t := strings.TrimSpace(s)
	u := strings.ToUpper(t)
	mult := int64(1)
	for _, sfx := range []struct {
		s string
		m int64
	}{
		{"KIB", 1 << 10}, {"MIB", 1 << 20}, {"GIB", 1 << 30}, {"TIB", 1 << 40},
		{"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30}, {"TB", 1 << 40},
		{"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30}, {"T", 1 << 40},
	} {
		if strings.HasSuffix(u, sfx.s) {
			u = strings.TrimSuffix(u, sfx.s)
			mult = sfx.m
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(u), 10, 64)
	if err != nil || n < 0 || n > math.MaxInt64/mult {
		return 0, fmt.Errorf("invalid size %q (want e.g. 1073741824, 512M, 1G)", s)
	}
	return n * mult, nil
}
