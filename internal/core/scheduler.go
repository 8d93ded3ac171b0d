package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"uopsinfo/internal/isa"
	"uopsinfo/internal/measure"
)

// This file implements the sharded characterization scheduler. Every
// instruction variant's measurement is independent of the others, but the
// stack that performs it is stateful: the simulator's divider-value regime is
// switched mid-measurement and its rename/dispatch state lives in reusable
// per-Machine arenas, the memory arena hands out addresses monotonically,
// and the chain-latency cache fills as latencies are measured. Sharding
// therefore gives each worker its own complete simulator/harness/
// characterizer stack instead of locking a shared one; the only state
// shared between workers is the blocking-instruction set, which is
// discovered once up front and read-only afterwards (and the target Arch,
// whose perf-description cache is internally synchronized and lock-free on
// the read path).

// Fork returns a Characterizer with its own independent simulator and
// measurement harness, sharing only the target microarchitecture and the
// already-discovered blocking-instruction set (which is read-only after
// discovery). The fork can be used on another goroutine without
// synchronization.
func (c *Characterizer) Fork() (*Characterizer, error) {
	h, err := c.gen.h.Fork()
	if err != nil {
		return nil, fmt.Errorf("core: forking characterizer: %w", err)
	}
	nc := New(h)
	nc.blocking = c.blocking
	// Chain-instruction latencies are deterministic calibration values, so
	// the fork can start from the parent's cache instead of re-measuring
	// them. poolMu serializes the copy against a concurrent releaseFork
	// merging latencies back into the parent.
	c.poolMu.Lock()
	for name, lat := range c.gen.chainLat {
		nc.gen.chainLat[name] = lat
	}
	c.poolMu.Unlock()
	return nc, nil
}

// acquireFork returns a worker Characterizer from the pool: a warm one —
// populated simulator arenas, rename templates, filled chain-latency cache —
// if a previous run returned one, or a fresh Fork otherwise. The fork is
// exclusively owned until releaseFork. Per-variant results do not depend on
// the warmth of the stack that measures them (the resume-invariance and
// fork-differential tests pin this), so a pooled fork and a fresh fork are
// interchangeable.
func (c *Characterizer) acquireFork() (*Characterizer, error) {
	c.poolMu.Lock()
	if c.pool == nil {
		c.pool = measure.NewPool(c.gen.h)
		c.poolChars = make(map[*measure.Harness]*Characterizer)
	}
	pool := c.pool
	c.poolMu.Unlock()

	h, _, err := pool.Get()
	if err != nil {
		return nil, fmt.Errorf("core: forking characterizer: %w", err)
	}

	c.poolMu.Lock()
	defer c.poolMu.Unlock()
	fc := c.poolChars[h]
	if fc == nil {
		fc = New(h)
		c.poolChars[h] = fc
	}
	// The blocking set may have been discovered (or re-pointed) since this
	// fork was parked; chain latencies are deterministic calibration values,
	// so top the fork's cache up with anything the parent has learned since.
	fc.blocking = c.blocking
	for name, lat := range c.gen.chainLat {
		if _, ok := fc.gen.chainLat[name]; !ok {
			fc.gen.chainLat[name] = lat
		}
	}
	return fc, nil
}

// releaseFork parks a fork obtained from acquireFork back into the pool and
// folds freshly measured chain latencies back into the parent's cache, so
// later runs (on any fork) start warmer. Must be called once per checkout,
// after the fork's worker has finished with it.
func (c *Characterizer) releaseFork(fc *Characterizer) {
	if fc == nil {
		return
	}
	c.poolMu.Lock()
	for name, lat := range fc.gen.chainLat {
		if _, ok := c.gen.chainLat[name]; !ok {
			c.gen.chainLat[name] = lat
		}
	}
	pool := c.pool
	c.poolMu.Unlock()
	pool.Put(fc.gen.h)
}

// PoolStats reports how effective the fork pool has been; zero-valued until
// the first parallel run.
func (c *Characterizer) PoolStats() measure.PoolStats {
	c.poolMu.Lock()
	pool := c.pool
	c.poolMu.Unlock()
	if pool == nil {
		return measure.PoolStats{}
	}
	return pool.Stats()
}

// resolveInstrs returns the instruction variants selected by opts, in the
// deterministic order they are characterized and reported in.
func (c *Characterizer) resolveInstrs(opts Options) ([]*isa.Instr, error) {
	if len(opts.Only) == 0 {
		return c.gen.set.Instrs(), nil
	}
	instrs := make([]*isa.Instr, 0, len(opts.Only))
	for _, name := range opts.Only {
		in, err := c.gen.lookupVariant(name)
		if err != nil {
			return nil, err
		}
		instrs = append(instrs, in)
	}
	return instrs, nil
}

// characterizeOne characterizes a single variant, converting a measurement
// error into a skipped result so that one unmeasurable variant does not lose
// the rest of the run.
func (c *Characterizer) characterizeOne(in *isa.Instr, opts Options) *InstrResult {
	res, err := c.characterizeInstr(in, opts)
	if err != nil {
		res = &InstrResult{Name: in.Name, Mnemonic: in.Mnemonic, Skipped: "error: " + err.Error()}
	}
	return res
}

// progressSink serializes progress callbacks from concurrent workers: the
// done count is monotonically increasing and each item is reported exactly
// once, matching the sequential contract.
type progressSink struct {
	mu    sync.Mutex
	done  int
	total int
	fn    func(done, total int, name string)
}

func (p *progressSink) report(name string) {
	if p.fn == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock() // a panicking callback must not wedge the other workers
	p.done++
	p.fn(p.done, p.total, name)
}

// runCancelled reports whether the run's context (nil meaning "never
// cancelled") has been cancelled, wrapping ctx.Err() so errors.Is still
// matches context.Canceled / DeadlineExceeded.
func runCancelled(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: characterization cancelled: %w", err)
	}
	return nil
}

// DefaultWorkers is the worker count used when Options.Workers is negative:
// one worker per available CPU.
func DefaultWorkers() int { return runtime.NumCPU() }

// shard runs item(w, i) for every i in [0, n) and reports the name each item
// returns through sink; it is the one loop behind both parallel phases,
// blocking discovery and variant characterization. With workers > 1
// (negative: DefaultWorkers) and a forkable runner, up to workers pooled
// forks claim items through an atomic counter, each on its own goroutine;
// otherwise the items run in order on c itself. Either way ctx is checked
// before each item, and a cancelled run returns the wrapped ctx error.
//
// A panic in item or in a sink callback is re-raised on the calling
// goroutine once every worker has stopped; the others stop at their next
// item, and the fork that panicked is not parked back in the pool.
func (c *Characterizer) shard(ctx context.Context, workers, n int, sink *progressSink,
	item func(w *Characterizer, i int) string) error {
	var next atomic.Int64
	var stop atomic.Bool
	loop := func(w *Characterizer) {
		for !stop.Load() && runCancelled(ctx) == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			sink.report(item(w, i))
		}
	}
	if workers < 0 {
		workers = DefaultWorkers()
	}
	forks := c.acquireForks(min(workers, n))
	if forks == nil {
		loop(c)
		return runCancelled(ctx)
	}

	var wg sync.WaitGroup
	panics := make(chan any, len(forks))
	for _, fc := range forks {
		wg.Add(1)
		go func(fc *Characterizer) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					stop.Store(true)
					c.poolMu.Lock()
					delete(c.poolChars, fc.gen.h)
					c.poolMu.Unlock()
					panics <- p
					return
				}
				c.releaseFork(fc)
			}()
			loop(fc)
		}(fc)
	}
	wg.Wait()
	select {
	case p := <-panics:
		panic(p)
	default:
		return runCancelled(ctx)
	}
}

// acquireForks checks k worker stacks out of the fork pool, or returns nil
// when k < 2 or the runner cannot be forked: the calling Characterizer can
// still do the whole run, sequentially (the Workers <= 1 contract).
func (c *Characterizer) acquireForks(k int) []*Characterizer {
	if k < 2 {
		return nil
	}
	forks := make([]*Characterizer, 0, k)
	for len(forks) < k {
		fc, err := c.acquireFork()
		if err != nil {
			for _, fc := range forks {
				c.releaseFork(fc)
			}
			return nil
		}
		forks = append(forks, fc)
	}
	return forks
}
