package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"uopsinfo/internal/isa"
)

// This file implements the sharded characterization scheduler. Every
// instruction variant's measurement is independent of the others, but the
// stack that performs it is stateful: the simulator's divider-value regime is
// switched mid-measurement and its rename/dispatch state lives in reusable
// per-Machine arenas, the memory arena hands out addresses monotonically,
// and the chain-latency cache fills as latencies are measured. Sharding
// therefore gives each worker of a run its own complete simulator/harness/
// characterizer stack, forked for the run, instead of locking a shared one;
// the only state shared between workers is the blocking-instruction set,
// which is discovered once up front and read-only afterwards (and the target
// Arch, whose perf-description cache is internally synchronized and
// lock-free on the read path, and the reading table of the simulators,
// which is synchronized too).

// Fork returns a Characterizer with its own independent simulator and
// measurement harness, sharing only the target microarchitecture and the
// already-discovered blocking-instruction set (which is read-only after
// discovery). The fork can be used on another goroutine without
// synchronization, and forking reads c without changing it, so several
// goroutines may fork c at once.
func (c *Characterizer) Fork() (*Characterizer, error) {
	h, err := c.gen.h.Fork()
	if err != nil {
		return nil, fmt.Errorf("core: forking characterizer: %w", err)
	}
	nc := New(h)
	nc.blocking = c.blocking
	return nc, nil
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
// blocking discovery and variant characterization. It forks
// min(max(workers, 1), n) fresh stacks from c (negative workers:
// DefaultWorkers), which claim items through an atomic counter, each on its
// own goroutine, and are dropped when the run ends; so c measures nothing,
// and concurrent runs on c do not wait for each other. Only if c's runner
// cannot fork do the items run in order on c itself, and such runs take
// turns on c. Either way ctx is checked before each item, and a cancelled
// run returns the wrapped ctx error.
//
// A panic in item or in a sink callback is re-raised on the calling
// goroutine once every worker has stopped; the others stop at their next
// item.
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
	forks, err := c.forks(min(max(workers, 1), n))
	if err != nil {
		c.own.Lock()
		defer c.own.Unlock()
		loop(c)
		return runCancelled(ctx)
	}

	var wg sync.WaitGroup
	panics := make(chan any, len(forks))
	for _, fc := range forks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					stop.Store(true)
					panics <- p
				}
			}()
			loop(fc)
		}()
	}
	wg.Wait()
	select {
	case p := <-panics:
		panic(p)
	default:
		return runCancelled(ctx)
	}
}

// forks returns k fresh forks of c, or an error if c's runner cannot fork.
func (c *Characterizer) forks(k int) ([]*Characterizer, error) {
	forks := make([]*Characterizer, k)
	for i := range forks {
		fc, err := c.Fork()
		if err != nil {
			return nil, err
		}
		forks[i] = fc
	}
	return forks, nil
}
