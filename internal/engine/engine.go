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

	"uopsinfo/internal/core"
	"uopsinfo/internal/measure"
	"uopsinfo/internal/pipesim"
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
	// actually quiesce on shutdown instead of leaving a run whose requesters
	// all hung up characterizing into the void. Nil means runs are never
	// aborted.
	BaseContext context.Context
	// Workers is the parallel worker budget of one run: its blocking
	// discovery and its per-variant characterization shard across that many
	// stacks forked for the run, and Prewarm splits it across the
	// generations it builds. The budget is per run: concurrent runs each
	// fork their own stacks, also on one generation. <= 0 selects
	// core.DefaultWorkers() (one worker per CPU).
	Workers int
	// CacheDir, if non-empty, enables the persistent result store rooted at
	// that directory: discovered blocking sets and per-variant measurements
	// are reused across process runs. Misses fall through to recomputation;
	// corrupt entries additionally get counted and quarantined (see
	// Stats.Store).
	CacheDir string
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
	BlockingHits   int `json:"blockingHits" metric:"uopsd_engine_blocking_hits_total" help:"Blocking-set store hits."`
	BlockingMisses int `json:"blockingMisses" metric:"uopsd_engine_blocking_misses_total" help:"Blocking-set store misses."`
	// ResultHits counts store-backed runs answered wholly from the
	// per-variant tier (nothing measured, no stack built); ResultMisses
	// counts store-backed runs that measured at least one variant.
	ResultHits   int `json:"resultHits" metric:"uopsd_engine_result_hits_total" help:"Store-backed runs answered wholly from stored per-variant records."`
	ResultMisses int `json:"resultMisses" metric:"uopsd_engine_result_misses_total" help:"Store-backed runs that measured at least one variant."`
	// VariantHits is the number of per-variant records served without
	// measuring: read from the store, or answered from the records the
	// engine keeps of earlier store reads. MemoryHits is the part of
	// VariantHits answered from memory, without reading a file.
	// VariantsMeasured is the number of variants actually measured (store
	// misses, or all requested variants when no store is configured).
	VariantHits      int `json:"variantHits" metric:"uopsd_engine_variant_hits_total" help:"Per-variant records served from the store."`
	MemoryHits       int `json:"memoryHits" metric:"uopsd_engine_memory_hits_total" help:"Per-variant records answered from the engine's memory of earlier store reads."`
	VariantsMeasured int `json:"variantsMeasured" metric:"uopsd_engine_variants_measured_total" help:"Instruction variants actually measured."`
	// SaveErrors counts failed store writes. The computed result always
	// wins over a failed write — the next run simply recomputes — but the
	// failures are counted here and logged through Config.Log instead of
	// being dropped.
	SaveErrors int `json:"saveErrors" metric:"uopsd_engine_store_save_errors_total" help:"Failed persistent-store writes."`
	// Runs counts CharacterizeArch executions that were not coalesced onto
	// an in-flight identical run (store-warm executions included — a warm
	// hit is still its own execution); CoalescedWaiters counts the requests
	// that instead attached to an in-flight run and shared its result. For
	// K concurrent identical cold requests, Runs increases by 1 and
	// CoalescedWaiters by K-1.
	Runs             int `json:"runs" metric:"uopsd_engine_runs_total" help:"Characterization runs executed (not coalesced onto another run)."`
	CoalescedWaiters int `json:"coalescedWaiters" metric:"uopsd_engine_coalesced_waiters_total" help:"Requests that attached to an in-flight identical run."`
	// PoolForked, PoolReused, PoolSeqBuilt and PoolSeqReused are always 0.
	// The first two counted the worker stacks of the fork pools, which went
	// away when each run started forking its own stacks; the others counted
	// the harness's materialized copy buffers, which went away when runners
	// started repeating kernels themselves. The fields stay because
	// cmd/uopsbench reads them.
	PoolForked    int64 `json:"poolForked"`
	PoolReused    int64 `json:"poolReused"`
	PoolSeqBuilt  int64 `json:"poolSeqBuilt"`
	PoolSeqReused int64 `json:"poolSeqReused"`
	// ReadingHits and ReadingMisses count the simulator readings the
	// engine's reading table answered and those it did not hold, which
	// were simulated; ReadingBytes is what the readings it holds are
	// charged, and ReadingDrops counts the times it dropped them whole to
	// make room. Only pipesim runners use the table.
	ReadingHits   int `json:"readingHits" metric:"uopsd_engine_reading_hits_total" help:"Simulator readings answered from the engine's reading table."`
	ReadingMisses int `json:"readingMisses" metric:"uopsd_engine_reading_misses_total" help:"Simulator readings the engine's reading table did not hold, and so simulated."`
	ReadingBytes  int `json:"readingBytes" metric:"uopsd_engine_reading_bytes" help:"Bytes charged to the readings the engine's reading table holds."`
	ReadingDrops  int `json:"readingDrops" metric:"uopsd_engine_reading_drops_total" help:"Times the engine's reading table dropped its readings whole to make room."`
	// Fleet carries the measurement-fleet counters (requests, retries,
	// per-worker health and latency) when the engine's backend
	// drives one (the "remote" backend); nil otherwise.
	Fleet *measure.FleetStats `json:"fleet,omitempty"`
	// Store carries the persistent store's lifecycle state (per-tier sizes,
	// degradation mode, corruption/quarantine/sweep counters) when a store
	// is configured; nil otherwise.
	Store *store.Stats `json:"store,omitempty"`
}

// Engine builds and caches one characterization stack per generation.
type Engine struct {
	cfg     Config
	backend measure.Backend
	st      *store.Store
	// readings is the reading table of every pipesim Machine the engine
	// builds, of every generation, and of their forks (see Harness).
	readings *pipesim.Table

	mu    sync.Mutex
	chars map[uarch.Generation]*charEntry
	// universes holds each generation's variant names, sorted: the
	// Variants of every store key the engine derives for the generation,
	// and the selection of a whole-generation run. Shared, never modified.
	universes map[uarch.Generation][]string
	// vdigs holds the variant-tier digests the engine has computed (see
	// variantDigest).
	vdigs map[variantTier]store.Digest

	// memMu guards mem, the per-variant records the store has returned, by
	// variant-tier digest and variant name: once the store has returned a
	// record, no run of this engine reads its file again. A record this
	// engine measured enters only when the store returns it. One record per
	// variant per digest bounds mem by the ISA. Records are shared and
	// read-only.
	memMu sync.Mutex
	mem   map[store.Digest]map[string]*core.InstrResult

	// flightMu guards flights, the singleflight table of in-progress
	// CharacterizeArch runs keyed by the run's store digest: concurrent
	// identical queries coalesce onto one execution and fan its result out.
	// flightsWG tracks the in-flight executions for Drain.
	flightMu  sync.Mutex
	flights   map[store.Digest]*flight
	flightsWG sync.WaitGroup

	statsMu sync.Mutex
	stats   Stats
}

// charEntry makes concurrent requests for the same generation build the
// stack exactly once; a build that panics is removed, so the next request
// builds again. Runs never measure on c: each forks stacks of its own from
// it (core.Options.Workers), so runs of one generation do not wait for each
// other.
type charEntry struct {
	once sync.Once
	c    *core.Characterizer
	err  error
}

// flight is one in-progress CharacterizeArch execution, running on its own
// goroutine. res, err and panicked are written exactly once, before done is
// closed; requesters read them only after done.
type flight struct {
	done     chan struct{}
	res      *core.ArchResult
	err      error
	panicked any // what the run panicked with, if it did
}

// New returns an engine for the configuration. It fails if the configured
// backend is not registered or if the cache directory is set and cannot be
// created.
func New(cfg Config) (*Engine, error) {
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
		backend:   backend,
		readings:  pipesim.NewTable(),
		chars:     make(map[uarch.Generation]*charEntry),
		universes: make(map[uarch.Generation][]string),
		vdigs:     make(map[variantTier]store.Digest),
		mem:       make(map[store.Digest]map[string]*core.InstrResult),
		flights:   make(map[store.Digest]*flight),
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
// the engine builds runs under, measure.DefaultConfig() (part of the cache
// key and of the service's fleet-handshake identity).
func (e *Engine) MeasureConfig() measure.Config { return measure.DefaultConfig() }

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

// Stats returns a snapshot of the engine's cumulative cache, coalescing and
// measurement counters, with those of its reading table, of its fleet when
// its backend drives one, and of its store when one is configured.
func (e *Engine) Stats() Stats {
	e.statsMu.Lock()
	s := e.stats
	e.statsMu.Unlock()

	rs := e.readings.Stats()
	s.ReadingHits, s.ReadingMisses, s.ReadingBytes, s.ReadingDrops = rs.Hits, rs.Misses, rs.Bytes, rs.Drops
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
// substrate state with the characterizer. It is the one place the engine
// builds a runner, and it hands a pipesim Machine the engine's reading
// table: readings are pure, so every Machine of every generation, and
// every fork of one, shares what another simulated (pipesim's memo.go).
func (e *Engine) Harness(gen uarch.Generation) (*measure.Harness, error) {
	r, err := e.backend.NewRunner(gen)
	if err != nil {
		return nil, fmt.Errorf("engine: backend %s: building runner for %s: %w", e.backend.Name(), gen, err)
	}
	if m, ok := r.(*pipesim.Machine); ok {
		m.SetTable(e.readings)
	}
	return measure.NewWithConfig(r, e.MeasureConfig()), nil
}

// Characterizer returns the (lazily built, cached) characterizer for a
// generation with its blocking-instruction set ready: restored from the
// persistent store when possible, discovered in parallel under the engine's
// worker budget otherwise. The engine's runs only fork it. A caller that
// measures on it directly (CharacterizeInstr, PortUsage, ...) must not do
// so from two goroutines at once.
func (e *Engine) Characterizer(gen uarch.Generation) (*core.Characterizer, error) {
	return e.characterizer(gen, e.Workers())
}

// characterizer returns the generation's characterizer, building it with a
// workers budget for blocking discovery on first use.
func (e *Engine) characterizer(gen uarch.Generation, workers int) (*core.Characterizer, error) {
	e.mu.Lock()
	ent, ok := e.chars[gen]
	if !ok {
		ent = &charEntry{}
		e.chars[gen] = ent
	}
	e.mu.Unlock()
	ent.once.Do(func() {
		defer func() {
			// A build that panicked (e.g. in a BlockingProgress callback)
			// set neither c nor err, and the spent Once would serve that to
			// every later request: fail its waiters and drop the entry so
			// the next request rebuilds.
			if ent.c == nil && ent.err == nil {
				ent.err = fmt.Errorf("engine: building the %s stack panicked", gen)
				e.mu.Lock()
				delete(e.chars, gen)
				e.mu.Unlock()
			}
		}()
		ent.c, ent.err = e.build(gen, workers)
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
	if fn := e.cfg.BlockingProgress; fn != nil {
		opts.BlockingProgress = func(done, total int, name string) { fn(gen, done, total, name) }
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
	return store.Key{Arch: arch.Name(), Backend: measure.Fingerprint(e.backend), Measure: e.MeasureConfig(),
		Variants: e.universe(arch), Scope: scope}
}

// variantTier names one variant-tier digest: the generation, the backend
// fingerprint and the variant scope (RunOptions.variantScope) are all it
// depends on.
type variantTier struct {
	gen     uarch.Generation
	backend string
	scope   string
}

// variantDigest returns the variant-tier digest of the generation under
// scope, hashed once per engine and backend fingerprint: a warm run does
// not hash the generation's variant list again for it. A concurrent first
// call hashes an equal digest.
func (e *Engine) variantDigest(arch *uarch.Arch, scope string) store.Digest {
	tier := variantTier{gen: arch.Gen(), backend: measure.Fingerprint(e.backend), scope: scope}
	e.mu.Lock()
	d, ok := e.vdigs[tier]
	e.mu.Unlock()
	if !ok {
		d = e.key(arch, scope).Digest()
		e.mu.Lock()
		e.vdigs[tier] = d
		e.mu.Unlock()
	}
	return d
}

// universe returns the generation's variant names, sorted, built once per
// generation. The slice is shared and must not be modified.
func (e *Engine) universe(arch *uarch.Arch) []string {
	e.mu.Lock()
	names, ok := e.universes[arch.Gen()]
	e.mu.Unlock()
	if !ok {
		// Built outside the lock: the generation's first InstrSet call
		// builds its instruction set, which takes a while. A concurrent
		// first call builds an equal list.
		names = arch.InstrSet().Names()
		e.mu.Lock()
		e.universes[arch.Gen()] = names
		e.mu.Unlock()
	}
	return names
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
	// not reported). It runs on the run's own goroutines, and keeps being
	// called if the caller stops waiting for the run.
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

// selection resolves the run's variant selection to canonical variant names;
// an empty selection is the generation's whole (shared) universe. missing
// reports the first name that does not resolve (empty when the whole
// selection resolves); the engine fails fast on it instead of paying a stack
// build and blocking discovery for a run the scheduler would reject anyway.
func (e *Engine) selection(arch *uarch.Arch, only []string) (names []string, missing string) {
	if len(only) == 0 {
		return e.universe(arch), ""
	}
	set := arch.InstrSet()
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
// The engine keeps every record the store returns, so a repeated query
// reads no file: once the store has returned a record, the engine answers
// it from memory, even after the file is deleted or the store degrades.
// The records of the returned result are shared — with other requesters
// and with later runs — and must not be modified.
//
// Concurrent identical queries — same generation, same options, so the same
// store digest — are coalesced singleflight-style: the first request starts
// the run on its own goroutine, later ones attach to it, and all of them
// receive the same result (and error), so N simultaneous cold requests
// trigger exactly one measurement run. Stats.Runs and Stats.CoalescedWaiters
// count the two populations. Only the first request's opts drive the run; a
// coalesced waiter's Progress callback never fires.
//
// ctx governs admission and waiting, not the measurement itself: any
// requester whose context is cancelled, the one that started the run
// included, unblocks immediately with ctx.Err(), while the run always
// completes (its result still serves the remaining waiters and warms the
// store). A run that panics fails its waiters with an error, and the panic
// is re-raised on the goroutine of the request that started it, if that
// request is still waiting. An out-of-range generation is an error, not a
// panic.
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
	f, coalesced := e.flights[dig]
	if !coalesced {
		f = &flight{done: make(chan struct{})}
		e.flights[dig] = f
		e.flightsWG.Add(1)
		go e.fly(f, dig, arch, opts)
	}
	e.flightMu.Unlock()
	e.count(func(s *Stats) {
		if coalesced {
			s.CoalescedWaiters++
		} else {
			s.Runs++
		}
	})

	select {
	case <-f.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if f.panicked != nil && !coalesced {
		panic(f.panicked)
	}
	return f.res, f.err
}

// fly executes a flight and then releases it. The flight must leave the table
// even if the run panics (e.g. in a caller-supplied Progress callback), or
// every later identical request would block on done forever; the panic is
// recovered into an error for the waiters and kept for the requester that
// started the run.
func (e *Engine) fly(f *flight, dig store.Digest, arch *uarch.Arch, opts RunOptions) {
	defer func() {
		if p := recover(); p != nil {
			f.panicked = p
			f.err = fmt.Errorf("engine: characterization of %s aborted by a panic: %v", arch.Name(), p)
		}
		e.flightMu.Lock()
		delete(e.flights, dig)
		e.flightMu.Unlock()
		close(f.done)
		e.flightsWG.Done()
	}()
	f.res, f.err = e.characterizeArch(arch, opts)
}

// characterizeArch is the uncoalesced body of CharacterizeArchContext: the
// per-variant recall from memory and the store, the resume scheduling of
// missing variants, and the persistence of what was measured.
func (e *Engine) characterizeArch(arch *uarch.Arch, opts RunOptions) (*core.ArchResult, error) {
	gen := arch.Gen()
	// An unresolvable selection fails here, before any stack build: paying
	// minutes of blocking discovery to have the scheduler reject a typo is
	// not production-shaped.
	names, missing := e.selection(arch, opts.Only)
	if missing != "" {
		return nil, fmt.Errorf("engine: %s: no instruction variant %q", arch.Name(), missing)
	}

	var vdig store.Digest
	var partial map[string]*core.InstrResult
	if e.st != nil {
		// Deriving each per-variant filename from the variant-tier digest
		// is O(1), so probing (and later persisting) N variants does not
		// re-hash the N-variant universe N times.
		vdig = e.variantDigest(arch, opts.variantScope())
		partial = e.recall(vdig, names)

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
				// partial holds exactly the selection's records.
				e.count(func(s *Stats) { s.ResultHits++ })
				return &core.ArchResult{Arch: arch.Name(), Results: partial}, nil
			}
		}
		e.count(func(s *Stats) { s.ResultMisses++ })
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = e.Workers()
	}
	c, err := e.characterizer(gen, workers)
	if err != nil {
		return nil, err
	}
	res, err := c.CharacterizeResume(core.Options{
		Only:           opts.Only,
		SkipLatency:    opts.SkipLatency,
		SkipPortUsage:  opts.SkipPortUsage,
		SkipThroughput: opts.SkipThroughput,
		Workers:        workers,
		Context:        e.baseCtx(),
		Progress:       opts.Progress,
	}, partial)
	if err != nil {
		return nil, fmt.Errorf("engine: %s: %w", arch.Name(), err)
	}
	e.count(func(s *Stats) { s.VariantsMeasured += len(res.Results) - len(partial) })
	if e.st != nil {
		e.persistVariants(vdig, res, partial)
	}
	return res, nil
}

// recall returns the stored records among names: from memory for records the
// store has returned before, from the store for the rest. Every record the
// store returns is remembered for the next run.
func (e *Engine) recall(vdig store.Digest, names []string) map[string]*core.InstrResult {
	out := make(map[string]*core.InstrResult, len(names))
	var absent []string
	e.memMu.Lock()
	mem := e.mem[vdig]
	for _, name := range names {
		if rec := mem[name]; rec != nil {
			out[name] = rec
		} else {
			absent = append(absent, name)
		}
	}
	e.memMu.Unlock()
	remembered := len(out)
	if len(absent) > 0 {
		loaded := e.st.LoadVariants(vdig, absent)
		if len(loaded) > 0 {
			e.memMu.Lock()
			mem = e.mem[vdig]
			if mem == nil {
				mem = make(map[string]*core.InstrResult, len(loaded))
				e.mem[vdig] = mem
			}
			for name, rec := range loaded {
				mem[name] = rec
				out[name] = rec
			}
			e.memMu.Unlock()
		}
	}
	e.count(func(s *Stats) {
		s.VariantHits += len(out)
		s.MemoryHits += remembered
	})
	return out
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
