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

// TierStats is the size accounting of one storage tier. Tier names it, as
// the tier label of its /metrics series.
type TierStats struct {
	Tier  string `json:"-" label:"tier"`
	Bytes int64  `json:"bytes" metric:"uopsd_store_bytes" help:"Persistent-store bytes per storage tier."`
	Files int64  `json:"files" metric:"uopsd_store_files" help:"Persistent-store files per storage tier."`
}

// Stats is the store's observable lifecycle state: per-tier sizes, the
// degradation mode, and monotonic counters for corruption, quarantines,
// swept debris, suppressed saves and mode transitions. It flows through
// engine.Stats to /v1/stats and /metrics. Degraded is Mode other than
// ModeOK, for /metrics only.
type Stats struct {
	Mode     string    `json:"mode"`
	Degraded bool      `json:"-" metric:"uopsd_store_degraded" help:"Whether the persistent store is in a degraded mode (read-only or compute-only)."`
	Blocking TierStats `json:"blocking"`
	Variant  TierStats `json:"variant"`

	Corrupt     int64 `json:"corrupt" metric:"uopsd_store_corrupt_total" help:"Corrupt persistent-store entries detected (undecodable, torn, mis-named)."`
	Quarantined int64 `json:"quarantined" metric:"uopsd_store_quarantined_total" help:"Corrupt entries renamed aside to *.corrupt."`
	// Compactions is always 0.
	//
	// Deprecated: the store keeps one file per variant and never compacts;
	// the field and its JSON key remain for existing readers.
	Compactions     int64 `json:"compactions"`
	SweptDebris     int64 `json:"sweptDebris" metric:"uopsd_store_swept_debris_total" help:"Debris files collected by startup integrity sweeps."`
	SavesSuppressed int64 `json:"savesSuppressed" metric:"uopsd_store_saves_suppressed_total" help:"Store writes suppressed while the store was write-degraded."`
	Degradations    int64 `json:"degradations" metric:"uopsd_store_degradations_total" help:"Transitions of the persistent store into a degraded mode."`
}

// Stats returns a consistent snapshot of the store's lifecycle state.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Mode = s.modeLocked()
	st.Degraded = st.Mode != ModeOK
	st.Blocking = TierStats{Tier: KindBlocking, Bytes: s.tiers[tierBlocking].bytes, Files: s.tiers[tierBlocking].files}
	st.Variant = TierStats{Tier: KindVariant, Bytes: s.tiers[tierVariant].bytes, Files: s.tiers[tierVariant].files}
	return st
}
