// Package engine is the single entry point for building and running
// characterization stacks. It owns the selection of the measurement backend
// (the execution substrate, resolved from the measure package's backend
// registry), the construction of the runner/harness/characterizer tower for
// a microarchitecture generation, the sharding budget for parallel runs, the
// persistent result store, and the command-line flags that configure them
// (RegisterFlags), so that every command gets the same -j / -cache /
// -backend behaviour from the same code path instead of assembling the
// layers by hand.
//
// The engine guarantees the layer's determinism contract end to end: blocking
// discovery and per-variant characterization are sharded across forked worker
// stacks with deterministic merges, and cached results round-trip exactly, so
// the emitted XML is byte-identical for any worker count, any backend, and
// any cold/warm/partially-warm cache state.
package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"uopsinfo/internal/core"
	"uopsinfo/internal/measure"
	"uopsinfo/internal/store"
	"uopsinfo/internal/uarch"
)

// Config controls how the engine builds its stacks.
type Config struct {
	// BaseContext, if non-nil, bounds the lifetime of every measurement run
	// the engine executes. Unlike the per-request context of
	// CharacterizeArchContext — which only governs how long that caller
	// waits — cancelling the base context aborts the in-flight runs
	// themselves (between candidates and between variants), so a server can
	// actually quiesce on shutdown instead of leaving a detached coalesced
	// run characterizing into the void. Nil means runs are never aborted.
	BaseContext context.Context
	// Workers is the total parallel worker budget shared by everything the
	// engine runs: blocking discovery, per-variant characterization and
	// concurrent per-generation prewarming all draw from it. <= 0 selects
	// core.DefaultWorkers() (one worker per CPU).
	Workers int
	// CacheDir, if non-empty, enables the persistent result store rooted at
	// that directory: discovered blocking sets and per-variant measurements
	// are reused across process runs. Misses fall through to recomputation;
	// corrupt entries additionally get counted and quarantined (see
	// Stats.Store).
	CacheDir string
	// StoreMaxBytes and StoreMaxFiles, when positive, bound the persistent
	// store: past a budget, whole cold digests are evicted
	// least-recently-used, per-variant tier first. Zero means unbounded.
	StoreMaxBytes int64
	StoreMaxFiles int64
	// StoreDurable selects full crash safety for store writes (fsync before
	// the rename, directory sync after it). uopsd turns it on — its store is
	// supposed to survive power cycles; the one-shot CLIs leave it off — a
	// cache entry lost in a crash costs one re-measurement.
	StoreDurable bool
	// Store, if non-nil, is used instead of opening CacheDir — the seam for
	// tests that need a store with an injected (fault-carrying) filesystem.
	Store *store.Store
	// Backend names the measurement backend (execution substrate) to build
	// runners from, as registered in the measure package's backend registry.
	// Empty selects measure.DefaultBackend; an unregistered name makes New
	// fail with an error listing the registered backends.
	Backend string
	// Measure is the measurement-protocol configuration for every harness
	// the engine builds. The zero value selects measure.DefaultConfig().
	Measure measure.Config
	// BlockingProgress, if non-nil, is called after each candidate during
	// blocking-instruction discovery of any generation.
	BlockingProgress func(gen uarch.Generation, done, total int, name string)
	// Log, if non-nil, receives diagnostics that must not fail a run but
	// should not vanish either — most importantly persistent-store save
	// errors, which are otherwise only counted in Stats. The CLI tools wire
	// it to their logger under -v.
	Log func(format string, args ...interface{})
}

// Stats are cumulative counters of the engine's cache, coalescing and
// measurement activity since New. They make cache behaviour observable: a
// warm incremental run reports variant hits for the cached entries and
// measures only the missing ones. The JSON field names are part of the
// characterization service's /v1/stats response.
type Stats struct {
	// BlockingHits and BlockingMisses count blocking-set store lookups.
	BlockingHits   int `json:"blockingHits"`
	BlockingMisses int `json:"blockingMisses"`
	// ResultHits counts store-backed runs answered wholly from the
	// per-variant tier (nothing measured, no stack built); ResultMisses
	// counts store-backed runs that measured at least one variant.
	ResultHits   int `json:"resultHits"`
	ResultMisses int `json:"resultMisses"`
	// VariantHits is the number of per-variant records served from the
	// store; VariantsMeasured is the number of variants actually measured
	// (store misses, or all requested variants when no store is configured).
	VariantHits      int `json:"variantHits"`
	VariantsMeasured int `json:"variantsMeasured"`
	// SaveErrors counts failed store writes. The computed result always
	// wins over a failed write — the next run simply recomputes — but the
	// failures are counted here and logged through Config.Log instead of
	// being dropped.
	SaveErrors int `json:"saveErrors"`
	// Runs counts CharacterizeArch executions that were not coalesced onto
	// an in-flight identical run (store-warm executions included — a warm
	// hit is still its own execution); CoalescedWaiters counts the requests
	// that instead attached to an in-flight run and shared its result. For
	// K concurrent identical cold requests, Runs increases by 1 and
	// CoalescedWaiters by K-1.
	Runs             int `json:"runs"`
	CoalescedWaiters int `json:"coalescedWaiters"`
	// PoolForked and PoolReused count worker-stack checkouts from the
	// per-generation fork pools: Forked built a fresh simulator/harness
	// stack, Reused picked up a warm one from a previous run (its simulator
	// arenas, memoized perf descriptions and repeat buffers intact).
	// PoolSeqBuilt and PoolSeqReused count, inside those pooled harnesses,
	// how often Measure materialized its n-copy repeat sequences versus
	// reusing the ones already buffered. Aggregated across generations,
	// including the raw-sequence pools behind SequencePool.
	PoolForked    int64 `json:"poolForked"`
	PoolReused    int64 `json:"poolReused"`
	PoolSeqBuilt  int64 `json:"poolSeqBuilt"`
	PoolSeqReused int64 `json:"poolSeqReused"`
	// Fleet carries the measurement-fleet counters (batches, retries,
	// hedges, per-worker health and latency) when the engine's backend
	// drives one (the "remote" backend); nil otherwise.
	Fleet *measure.FleetStats `json:"fleet,omitempty"`
	// Store carries the persistent store's lifecycle state (per-tier sizes,
	// degradation mode, corruption/quarantine/eviction counters) when a store
	// is configured; nil otherwise.
	Store *store.Stats `json:"store,omitempty"`
}

// Engine builds and caches one characterization stack per generation.
type Engine struct {
	cfg     Config
	mcfg    measure.Config
	backend measure.Backend
	st      *store.Store

	mu       sync.Mutex
	chars    map[uarch.Generation]*charEntry
	seqPools map[uarch.Generation]*seqPoolEntry

	// flightMu guards flights, the singleflight table of in-progress
	// CharacterizeArch runs keyed by the run's store digest: concurrent
	// identical queries coalesce onto one execution and fan its result out.
	// flightsWG tracks the in-flight executions for Drain.
	flightMu  sync.Mutex
	flights   map[store.Digest]*flight
	flightsWG sync.WaitGroup

	// blockMu guards blockProg, the latest blocking-discovery progress per
	// generation. Discovery happens at most once per generation (inside the
	// charEntry), but several flights of that generation may be waiting on
	// it; FlightProgress merges these counters into any flight still in its
	// blocking phase.
	blockMu   sync.Mutex
	blockProg map[uarch.Generation][2]int

	statsMu sync.Mutex
	stats   Stats
}

// charEntry makes concurrent requests for the same generation build the
// stack exactly once. built is set (atomically, after c and err) when the
// build has completed, so Stats can aggregate pool counters from finished
// entries without waiting on — or racing with — an in-progress build.
type charEntry struct {
	once  sync.Once
	c     *core.Characterizer
	err   error
	built atomic.Bool
}

// RunProgress is a point-in-time snapshot of one in-flight characterization
// run, exported so the HTTP service's job API can report per-phase progress.
// The JSON field names are part of the service's job-status responses.
type RunProgress struct {
	// Phase is "starting" (admission, store probes), "blocking" (the stack
	// is being built, including blocking-instruction discovery),
	// "measuring" (variants are being measured) or "done".
	Phase string `json:"phase"`
	// BlockingDone and BlockingTotal count blocking-discovery candidates for
	// the run's generation; they are zero outside the blocking phase and
	// when the blocking set came from the persistent store.
	BlockingDone  int `json:"blockingDone"`
	BlockingTotal int `json:"blockingTotal"`
	// VariantsDone and VariantsTotal count the variants actually measured by
	// this run; variants served from the per-variant store tier are not
	// included (they are already done when the measuring phase starts).
	VariantsDone  int `json:"variantsDone"`
	VariantsTotal int `json:"variantsTotal"`
}

// VariantRecord is one measured variant record of an in-flight run, exposed
// through FlightRecords so the service can stream results as they complete.
// The record is shared with the run's result; callers must not modify it.
type VariantRecord struct {
	Name   string            `json:"name"`
	Record *core.InstrResult `json:"record"`
}

// flight is one in-progress CharacterizeArch execution. res and err are
// written exactly once, before done is closed; waiters read them only after
// done. The mutex guards the observable run state (progress snapshot, the
// measured-record log and its change-notification channel), which outlives
// nothing: once the flight leaves the table, observers fall back to the
// completed result.
type flight struct {
	done chan struct{}
	res  *core.ArchResult
	err  error

	gen uarch.Generation

	mu      sync.Mutex
	prog    RunProgress
	records []VariantRecord
	changed chan struct{}
}

// setPhase publishes a phase transition, optionally (total >= 0) setting the
// variant totals of the measuring phase.
func (f *flight) setPhase(phase string, total int) {
	f.mu.Lock()
	f.prog.Phase = phase
	if total >= 0 {
		f.prog.VariantsTotal = total
	}
	f.mu.Unlock()
}

// addRecord appends one measured variant record and wakes every observer
// blocked on the previous changed channel.
func (f *flight) addRecord(name string, rec *core.InstrResult) {
	f.mu.Lock()
	f.records = append(f.records, VariantRecord{Name: name, Record: rec})
	close(f.changed)
	f.changed = make(chan struct{})
	f.mu.Unlock()
}

// finish marks the run done and closes the final changed channel (each
// channel instance is closed exactly once: addRecord always replaces the one
// it closes).
func (f *flight) finish() {
	f.mu.Lock()
	f.prog.Phase = "done"
	close(f.changed)
	f.mu.Unlock()
}

// New returns an engine for the configuration. It fails if the configured
// backend is not registered or if the cache directory is set and cannot be
// created.
func New(cfg Config) (*Engine, error) {
	mcfg := cfg.Measure
	if mcfg == (measure.Config{}) {
		mcfg = measure.DefaultConfig()
	}
	name := cfg.Backend
	if name == "" {
		name = measure.DefaultBackend
	}
	backend, ok := measure.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("engine: unknown measurement backend %q (registered backends: %s)",
			name, strings.Join(measure.Names(), ", "))
	}
	// A backend needing runtime configuration (the remote backend's fleet
	// URLs) must be ready now: its Version goes into every cache key, so
	// building on an unconfigured backend would mint keys from a
	// placeholder fingerprint.
	if rc, ok := backend.(measure.ReadyChecker); ok {
		if err := rc.Ready(); err != nil {
			return nil, fmt.Errorf("engine: backend %s: %w", name, err)
		}
	}
	e := &Engine{
		cfg:       cfg,
		mcfg:      mcfg,
		backend:   backend,
		chars:     make(map[uarch.Generation]*charEntry),
		seqPools:  make(map[uarch.Generation]*seqPoolEntry),
		flights:   make(map[store.Digest]*flight),
		blockProg: make(map[uarch.Generation][2]int),
	}
	if cfg.Store != nil {
		e.st = cfg.Store
	} else if cfg.CacheDir != "" {
		durability := store.DurabilityRename
		if cfg.StoreDurable {
			durability = store.DurabilityFull
		}
		st, err := store.OpenOptions(cfg.CacheDir, store.Options{
			Durability: durability,
			MaxBytes:   cfg.StoreMaxBytes,
			MaxFiles:   cfg.StoreMaxFiles,
			Log:        cfg.Log,
		})
		if err != nil {
			return nil, err
		}
		e.st = st
	}
	return e, nil
}

// Default returns an engine with the default configuration: the default
// backend and measurement protocol, a DefaultWorkers budget, and no
// persistent store.
func Default() *Engine {
	e, err := New(Config{})
	if err != nil {
		// Unreachable: the default backend is always registered and New
		// only fails otherwise when a cache directory is configured.
		panic(err)
	}
	return e
}

// Workers returns the engine's total worker budget.
func (e *Engine) Workers() int {
	if e.cfg.Workers > 0 {
		return e.cfg.Workers
	}
	return core.DefaultWorkers()
}

// Backend returns the measurement backend the engine builds runners from.
func (e *Engine) Backend() measure.Backend { return e.backend }

// MeasureConfig returns the measurement-protocol configuration every harness
// the engine builds runs under (part of the cache key and of the service's
// fleet-handshake identity).
func (e *Engine) MeasureConfig() measure.Config { return e.mcfg }

// baseCtx is the lifetime context of the engine's measurement runs.
func (e *Engine) baseCtx() context.Context {
	if e.cfg.BaseContext != nil {
		return e.cfg.BaseContext
	}
	return context.Background()
}

// Drain blocks until every in-flight characterization run has finished (or
// ctx expires). Together with a cancelled Config.BaseContext it is the
// shutdown protocol of a long-running server: stop admitting requests, cancel
// the base context, Drain — after which no engine goroutine is measuring.
func (e *Engine) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		e.flightsWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("engine: draining in-flight runs: %w", ctx.Err())
	}
}

// RunDigest returns the store digest that identifies a run's full content
// universe (generation, backend fingerprint, measurement protocol, variant
// set, options). It is the engine's coalescing key, which makes it double as
// a cache-validator for HTTP conditional requests: equal digests mean
// byte-identical results, computed without building any stack or touching the
// store.
func (e *Engine) RunDigest(gen uarch.Generation, opts RunOptions) (store.Digest, error) {
	arch, err := uarch.Lookup(gen)
	if err != nil {
		return store.Digest{}, fmt.Errorf("engine: %w", err)
	}
	return e.key(arch, opts.scope()).Digest(), nil
}

// FlightProgress returns a progress snapshot of the in-flight run with the
// given digest, and whether such a run exists. A flight in its blocking phase
// reports the generation's blocking-discovery counters, which may be shared
// with (and advanced by) other flights of the same generation.
func (e *Engine) FlightProgress(dig store.Digest) (RunProgress, bool) {
	e.flightMu.Lock()
	f, ok := e.flights[dig]
	e.flightMu.Unlock()
	if !ok {
		return RunProgress{}, false
	}
	f.mu.Lock()
	p := f.prog
	f.mu.Unlock()
	if p.Phase == "blocking" {
		e.blockMu.Lock()
		bp := e.blockProg[f.gen]
		e.blockMu.Unlock()
		p.BlockingDone, p.BlockingTotal = bp[0], bp[1]
	}
	return p, true
}

// FlightRecords returns the variant records measured so far by the in-flight
// run with the given digest, starting at record index from, together with a
// channel that is closed as soon as another record lands (or the run
// finishes) and whether such a run exists at all. Observers stream a run by
// looping: emit the returned records, advance from, wait on changed. When the
// run no longer exists (ok == false) the observer falls back to the completed
// result. Records are shared with the run's result and must not be modified.
func (e *Engine) FlightRecords(dig store.Digest, from int) (recs []VariantRecord, changed <-chan struct{}, ok bool) {
	e.flightMu.Lock()
	f, fok := e.flights[dig]
	e.flightMu.Unlock()
	if !fok {
		return nil, nil, false
	}
	f.mu.Lock()
	if from < 0 {
		from = 0
	}
	if from < len(f.records) {
		recs = f.records[from:len(f.records):len(f.records)]
	}
	changed = f.changed
	f.mu.Unlock()
	return recs, changed, true
}

// fingerprint is the backend identity folded into every cache key: results
// from different backends, or different revisions of one backend, never
// share store entries.
func (e *Engine) fingerprint() string {
	return e.backend.Name() + "@" + e.backend.Version()
}

// Stats returns a snapshot of the engine's cumulative cache and measurement
// counters, including the fork-pool effectiveness counters aggregated across
// every generation whose stack has finished building.
func (e *Engine) Stats() Stats {
	e.statsMu.Lock()
	s := e.stats
	e.statsMu.Unlock()

	e.mu.Lock()
	entries := make([]*charEntry, 0, len(e.chars))
	//uopslint:ignore detrange entries only feed PoolStats.Add, a commutative integer aggregation
	for _, ent := range e.chars {
		entries = append(entries, ent)
	}
	seqEntries := make([]*seqPoolEntry, 0, len(e.seqPools))
	//uopslint:ignore detrange entries only feed PoolStats.Add, a commutative integer aggregation
	for _, ent := range e.seqPools {
		seqEntries = append(seqEntries, ent)
	}
	e.mu.Unlock()
	var pool measure.PoolStats
	for _, ent := range entries {
		if ent.built.Load() && ent.c != nil {
			pool = pool.Add(ent.c.PoolStats())
		}
	}
	for _, ent := range seqEntries {
		if ent.built.Load() && ent.pool != nil {
			pool = pool.Add(ent.pool.Stats())
		}
	}
	s.PoolForked += pool.Forked
	s.PoolReused += pool.Reused
	s.PoolSeqBuilt += pool.SeqBuilt
	s.PoolSeqReused += pool.SeqReused
	if fr, ok := e.backend.(measure.FleetReporter); ok {
		if fs, ok := fr.FleetStats(); ok {
			s.Fleet = &fs
		}
	}
	if e.st != nil {
		ss := e.st.Stats()
		s.Store = &ss
	}
	return s
}

// StoreMode reports the persistent store's degradation mode (store.ModeOK,
// ModeReadOnly or ModeComputeOnly), or "" when no store is configured. The
// service's health endpoint surfaces it.
func (e *Engine) StoreMode() string {
	if e.st == nil {
		return ""
	}
	return e.st.Mode()
}

// seqPoolEntry builds one generation's raw-sequence measurement pool exactly
// once, mirroring charEntry.
type seqPoolEntry struct {
	once  sync.Once
	pool  *measure.Pool
	err   error
	built atomic.Bool
}

// SequencePool returns the (lazily built, cached) pool of measurement stacks
// for raw sequence execution on a generation — the substrate of the
// service's batch measurement endpoint. The pooled harnesses are separate
// from the characterizer's worker stacks: endpoint traffic must not steal
// warm stacks from (or leak divider-regime state into) characterization
// runs. Pool counters fold into Stats alongside the characterizer pools.
func (e *Engine) SequencePool(gen uarch.Generation) (*measure.Pool, error) {
	e.mu.Lock()
	ent, ok := e.seqPools[gen]
	if !ok {
		ent = &seqPoolEntry{}
		e.seqPools[gen] = ent
	}
	e.mu.Unlock()
	ent.once.Do(func() {
		h, err := e.Harness(gen)
		if err != nil {
			ent.err = err
		} else {
			ent.pool = measure.NewPool(h)
		}
		ent.built.Store(true)
	})
	return ent.pool, ent.err
}

func (e *Engine) count(f func(*Stats)) {
	e.statsMu.Lock()
	f(&e.stats)
	e.statsMu.Unlock()
}

// saved accounts for a store write: failures are counted in Stats and
// reported through Config.Log, never returned — the computed result always
// wins over a failed cache write, and the next run simply recomputes.
func (e *Engine) saved(err error) {
	if err == nil {
		return
	}
	e.count(func(s *Stats) { s.SaveErrors++ })
	if e.cfg.Log != nil {
		e.cfg.Log("engine: persistent store: %v", err)
	}
}

// Harness builds a fresh, independent measurement stack (a runner from the
// configured backend plus a harness) for a generation, e.g. for direct
// sequence measurements or prior-work baselines that must not share
// substrate state with the characterizer.
func (e *Engine) Harness(gen uarch.Generation) (*measure.Harness, error) {
	r, err := e.backend.NewRunner(gen)
	if err != nil {
		return nil, fmt.Errorf("engine: backend %s: building runner for %s: %w", e.backend.Name(), gen, err)
	}
	return measure.NewWithConfig(r, e.mcfg), nil
}

// Characterizer returns the (lazily built, cached) characterizer for a
// generation with its blocking-instruction set ready: restored from the
// persistent store when possible, discovered in parallel under the engine's
// worker budget otherwise.
func (e *Engine) Characterizer(gen uarch.Generation) (*core.Characterizer, error) {
	return e.characterizer(gen, e.Workers())
}

func (e *Engine) characterizer(gen uarch.Generation, workers int) (*core.Characterizer, error) {
	e.mu.Lock()
	ent, ok := e.chars[gen]
	if !ok {
		ent = &charEntry{}
		e.chars[gen] = ent
	}
	e.mu.Unlock()
	ent.once.Do(func() {
		ent.c, ent.err = e.build(gen, workers)
		ent.built.Store(true)
	})
	return ent.c, ent.err
}

// build constructs the full stack for a generation and ensures its blocking
// set, via the store or parallel discovery. An out-of-range generation is an
// error, not a panic: Generation values reach the engine from request-derived
// input (the HTTP service decodes them from URL segments).
func (e *Engine) build(gen uarch.Generation, workers int) (*core.Characterizer, error) {
	arch, err := uarch.Lookup(gen)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	h, err := e.Harness(gen)
	if err != nil {
		return nil, err
	}
	c := core.New(h)
	key := e.key(arch, store.KindBlocking)
	if e.st != nil {
		if rec, ok := e.st.LoadBlocking(key); ok {
			if bs, ok := rec.Restore(arch.InstrSet()); ok {
				e.count(func(s *Stats) { s.BlockingHits++ })
				c.SetBlocking(bs)
				return c, nil
			}
		}
		e.count(func(s *Stats) { s.BlockingMisses++ })
	}
	opts := core.Options{Workers: workers, Context: e.baseCtx()}
	opts.BlockingProgress = func(done, total int, name string) {
		e.blockMu.Lock()
		e.blockProg[gen] = [2]int{done, total}
		e.blockMu.Unlock()
		if e.cfg.BlockingProgress != nil {
			e.cfg.BlockingProgress(gen, done, total, name)
		}
	}
	bs, err := c.DiscoverBlocking(opts)
	if err != nil {
		return nil, fmt.Errorf("engine: %s: discovering blocking instructions: %w", arch.Name(), err)
	}
	if e.st != nil {
		e.saved(e.st.SaveBlocking(key, store.RecordBlocking(bs)))
	}
	return c, nil
}

// key builds the store key for a generation: the content hash covers the
// generation, the backend fingerprint, the measurement configuration and the
// full ISA variant set, so any change to the universe invalidates cached
// entries.
func (e *Engine) key(arch *uarch.Arch, scope string) store.Key {
	instrs := arch.InstrSet().Instrs()
	variants := make([]string, len(instrs))
	for i, in := range instrs {
		variants[i] = in.Name
	}
	return store.Key{Arch: arch.Name(), Backend: e.fingerprint(), Measure: e.mcfg,
		Variants: variants, Scope: scope}
}

// RunOptions controls one whole-ISA characterization run through the engine.
type RunOptions struct {
	// Only restricts the run to the named variants (all variants if empty).
	Only []string
	// SkipLatency, SkipPortUsage and SkipThroughput disable parts of the
	// characterization, as in core.Options.
	SkipLatency    bool
	SkipPortUsage  bool
	SkipThroughput bool
	// Workers overrides the engine's worker budget for this run (e.g. when a
	// caller splits its budget across concurrent generations). <= 0 uses the
	// engine budget.
	Workers int
	// Progress, if non-nil, is called after each measured instruction
	// (variants served from the per-variant cache are not re-measured and
	// not reported).
	Progress func(done, total int, name string)
}

// scope derives the run's digest scope (see RunDigest): everything that
// changes the result (and nothing that does not — worker counts and progress
// callbacks are excluded by the determinism guarantee). The string is part
// of every run digest, and so of every ETag the service has handed out:
// editing it, "result" prefix included, invalidates them all.
func (o RunOptions) scope() string {
	return fmt.Sprintf("result skipLatency=%v skipPortUsage=%v skipThroughput=%v only=%s",
		o.SkipLatency, o.SkipPortUsage, o.SkipThroughput, strings.Join(o.Only, ","))
}

// variantScope derives the per-variant store scope: like scope, but without
// the variant selection, so runs over different subsets share per-variant
// entries (that sharing is the point of the incremental tier). Editing it
// orphans every stored variant file.
func (o RunOptions) variantScope() string {
	return fmt.Sprintf("variant skipLatency=%v skipPortUsage=%v skipThroughput=%v",
		o.SkipLatency, o.SkipPortUsage, o.SkipThroughput)
}

// selection resolves the run's variant selection to canonical variant names.
// missing reports the first name that does not resolve (empty when the whole
// selection resolves); the engine fails fast on it instead of paying a stack
// build and blocking discovery for a run the scheduler would reject anyway.
func selection(arch *uarch.Arch, only []string) (names []string, missing string) {
	set := arch.InstrSet()
	if len(only) == 0 {
		instrs := set.Instrs()
		names = make([]string, len(instrs))
		for i, in := range instrs {
			names[i] = in.Name
		}
		return names, ""
	}
	names = make([]string, 0, len(only))
	for _, name := range only {
		in := set.Lookup(name)
		if in == nil {
			return nil, name
		}
		names = append(names, in.Name)
	}
	return names, ""
}

// CharacterizeArch runs (or loads from the store) the characterization of
// one generation. It is CharacterizeArchContext without cancellation; see
// there for the store and the coalescing of concurrent identical queries.
func (e *Engine) CharacterizeArch(gen uarch.Generation, opts RunOptions) (*core.ArchResult, error) {
	return e.CharacterizeArchContext(context.Background(), gen, opts)
}

// CharacterizeArchContext runs (or loads from the store) the
// characterization of one generation. The store's per-variant tier supplies
// every already-measured variant: when it covers the whole selection, the
// result is merged without building a characterizer at all; otherwise only
// the missing variants are scheduled (sharded across the worker budget)
// through the scheduler's resume entry point, and the newly measured ones
// are persisted for the next invocation. The merged result is
// byte-identical to a cold run for any worker count and any warm/cold mix.
//
// Concurrent identical queries — same generation, same options, so the same
// store digest — are coalesced singleflight-style: the first request
// executes, later ones attach to the in-flight execution and receive the
// same result (and error), so N simultaneous cold requests trigger exactly
// one measurement run. Stats.Runs and Stats.CoalescedWaiters count the two
// populations. Only the leader's opts drive the run; a coalesced waiter's
// Progress callback never fires.
//
// ctx governs admission and waiting, not the measurement itself: a waiter
// whose context is cancelled unblocks immediately with ctx.Err(), while the
// in-flight run always completes (its result still serves the remaining
// waiters and warms the store). An out-of-range generation is an error, not
// a panic.
func (e *Engine) CharacterizeArchContext(ctx context.Context, gen uarch.Generation, opts RunOptions) (*core.ArchResult, error) {
	arch, err := uarch.Lookup(gen)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := e.baseCtx().Err(); err != nil {
		return nil, fmt.Errorf("engine: shutting down: %w", err)
	}
	dig := e.key(arch, opts.scope()).Digest()

	e.flightMu.Lock()
	if f, ok := e.flights[dig]; ok {
		e.flightMu.Unlock()
		e.count(func(s *Stats) { s.CoalescedWaiters++ })
		select {
		case <-f.done:
			return f.res, f.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f := &flight{
		done:    make(chan struct{}),
		gen:     gen,
		prog:    RunProgress{Phase: "starting"},
		changed: make(chan struct{}),
	}
	e.flights[dig] = f
	e.flightsWG.Add(1)
	e.flightMu.Unlock()

	e.count(func(s *Stats) { s.Runs++ })
	// The flight must be released even if the run panics (e.g. in a
	// caller-supplied Progress callback): the service layer recovers handler
	// panics and keeps serving, so a flight left in the map would make every
	// later identical request block on done forever. completed distinguishes
	// a panic unwinding through here from a normal return, so waiters of a
	// panicked run get an error rather than a nil result.
	completed := false
	defer func() {
		if !completed {
			f.err = fmt.Errorf("engine: characterization of %s aborted by a panic", arch.Name())
		}
		e.flightMu.Lock()
		delete(e.flights, dig)
		e.flightMu.Unlock()
		f.finish()
		close(f.done)
		e.flightsWG.Done()
	}()
	f.res, f.err = e.characterizeArch(arch, opts, f)
	completed = true
	return f.res, f.err
}

// characterizeArch is the uncoalesced body of CharacterizeArchContext: the
// per-variant store probe, the resume scheduling of missing variants, and
// the persistence of what was measured. It publishes phase transitions and
// measured records on the flight for FlightProgress/FlightRecords observers.
func (e *Engine) characterizeArch(arch *uarch.Arch, opts RunOptions, f *flight) (*core.ArchResult, error) {
	gen := arch.Gen()
	// An unresolvable selection fails here, before any stack build: paying
	// minutes of blocking discovery to have the scheduler reject a typo is
	// not production-shaped.
	names, missing := selection(arch, opts.Only)
	if missing != "" {
		return nil, fmt.Errorf("engine: %s: no instruction variant %q", arch.Name(), missing)
	}

	var vdig store.Digest
	var partial map[string]*core.InstrResult
	if e.st != nil {
		// The variant-tier digest is computed once: deriving each
		// per-variant filename from it is O(1), so probing (and later
		// persisting) N variants does not re-hash the N-variant universe N
		// times.
		vdig = e.key(arch, opts.variantScope()).Digest()
		partial = e.st.LoadVariants(vdig, names)
		e.count(func(s *Stats) { s.VariantHits += len(partial) })

		// Full per-variant coverage: merge without building a characterizer
		// (no runner construction, no blocking discovery).
		if len(names) > 0 && len(partial) > 0 {
			complete := true
			for _, name := range names {
				if partial[name] == nil {
					complete = false
					break
				}
			}
			if complete {
				res := core.NewArchResult(arch.Name())
				for _, name := range names {
					res.Results[name] = partial[name]
				}
				e.count(func(s *Stats) { s.ResultHits++ })
				return res, nil
			}
		}
		e.count(func(s *Stats) { s.ResultMisses++ })
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = e.Workers()
	}
	// The stack build includes blocking discovery when the generation is
	// cold; a flight of an already-built generation passes through the phase
	// immediately.
	f.setPhase("blocking", -1)
	c, err := e.characterizer(gen, workers)
	if err != nil {
		return nil, err
	}
	f.setPhase("measuring", len(names)-len(partial))
	copts := core.Options{
		Only:           opts.Only,
		SkipLatency:    opts.SkipLatency,
		SkipPortUsage:  opts.SkipPortUsage,
		SkipThroughput: opts.SkipThroughput,
		Workers:        workers,
		Context:        e.baseCtx(),
		Variant:        f.addRecord,
	}
	copts.Progress = func(done, total int, name string) {
		f.mu.Lock()
		f.prog.VariantsDone, f.prog.VariantsTotal = done, total
		f.mu.Unlock()
		if opts.Progress != nil {
			opts.Progress(done, total, name)
		}
	}
	res, err := c.CharacterizeResume(copts, partial)
	if err != nil {
		return nil, fmt.Errorf("engine: %s: %w", arch.Name(), err)
	}
	e.count(func(s *Stats) { s.VariantsMeasured += len(res.Results) - len(partial) })
	if e.st != nil {
		e.persistVariants(vdig, res, partial)
	}
	return res, nil
}

// persistVariants writes the newly measured per-variant records, one file
// each. Every variant is its own entry, so concurrent runs — on this engine,
// on another engine, or in another uopsd handler sharing the cache
// directory — never lose each other's entries.
func (e *Engine) persistVariants(vdig store.Digest, res *core.ArchResult, partial map[string]*core.InstrResult) {
	for name, rec := range res.Results {
		if partial[name] == nil {
			e.saved(e.st.SaveVariant(vdig, name, rec))
		}
	}
}

// splitBudget divides a total worker budget across parts that run
// concurrently, so the total parallelism stays within budget: at most
// min(budget, parts) entries run at once, each entry gets budget/parts
// workers (at least 1), and the division remainder is spread over the first
// entries so the full budget is used. For example, a budget of 8 over 5
// parts yields 2,2,2,1,1.
func splitBudget(budget, parts int) []int {
	if parts <= 0 {
		return nil
	}
	if budget < 1 {
		budget = 1
	}
	outer := budget
	if outer > parts {
		outer = parts
	}
	inner := budget / outer
	extra := budget % outer
	split := make([]int, parts)
	for i := range split {
		split[i] = 1
		if i < outer {
			split[i] = inner
			if i < extra {
				split[i]++
			}
		}
	}
	return split
}

// Fanout runs fn(i, workers) for every part i in [0, parts), at most
// min(budget, parts) calls at once, where workers is part i's share of the
// budget as splitBudget divides it, so the total parallelism stays within
// budget. Every part runs even when another fails; the errors are joined.
// A budget below 1 runs one part at a time.
func Fanout(budget, parts int, fn func(i, workers int) error) error {
	errs := make([]error, parts)
	sem := make(chan struct{}, min(max(budget, 1), parts))
	var wg sync.WaitGroup
	for i, workers := range splitBudget(budget, parts) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = fn(i, workers)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Prewarm builds the characterizers (including blocking discovery) for the
// given generations concurrently, splitting the engine's worker budget
// between the generation level and the per-candidate level so the total
// parallelism stays within budget. Duplicate generations are built once.
func (e *Engine) Prewarm(gens []uarch.Generation) error {
	seen := make(map[uarch.Generation]bool, len(gens))
	unique := make([]uarch.Generation, 0, len(gens))
	for _, gen := range gens {
		if !seen[gen] {
			seen[gen] = true
			unique = append(unique, gen)
		}
	}
	return Fanout(e.Workers(), len(unique), func(i, workers int) error {
		_, err := e.characterizer(unique[i], workers)
		return err
	})
}
