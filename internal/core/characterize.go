package core

import (
	"context"
	"fmt"
	"sync"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/isa"
	"uopsinfo/internal/measure"
	"uopsinfo/internal/pipesim"
	"uopsinfo/internal/uarch"
)

// Characterizer drives the characterization of a microarchitecture: it owns
// the measurement harness, the discovered blocking instructions and the
// per-instruction algorithms (port usage, latency, throughput).
type Characterizer struct {
	gen      *gen
	blocking *BlockingSet
	// sorted is blocking's combinations in the order of Algorithm 1 (see
	// combos).
	sorted sortedSet
	// kernel is PortUsage's buffer for the kernel of one port combination
	// (see portKernel).
	kernel asmgen.Sequence

	// own makes the runs that measure on this Characterizer itself take
	// turns. shard measures here only when the runner cannot fork; every
	// other run measures on forks of its own.
	own sync.Mutex
}

// New returns a Characterizer for the given measurement harness.
func New(h *measure.Harness) *Characterizer {
	return &Characterizer{gen: newGen(h)}
}

// NewForArch builds the full stack for a generation: simulator, measurement
// harness with the default configuration, and characterizer.
func NewForArch(arch *uarch.Arch) *Characterizer {
	m := pipesim.New(arch)
	return New(measure.New(m))
}

// Arch returns the target microarchitecture.
func (c *Characterizer) Arch() *uarch.Arch { return c.gen.arch }

// Harness returns the measurement harness in use.
func (c *Characterizer) Harness() *measure.Harness { return c.gen.h }

// Blocking returns the discovered blocking-instruction set, discovering it on
// first use.
func (c *Characterizer) Blocking() (*BlockingSet, error) {
	if err := c.ensureBlocking(); err != nil {
		return nil, err
	}
	return c.blocking, nil
}

// Options controls a whole-ISA characterization run.
type Options struct {
	// Only restricts the run to the named variants (all variants if empty).
	Only []string
	// SkipLatency leaves the latencies out of the characterization (the
	// service's quick mode).
	SkipLatency bool
	// Context, if non-nil, bounds the lifetime of the run: blocking-instruction
	// discovery checks it between candidates and the characterization
	// scheduler between variants, and the run returns ctx.Err() (wrapped)
	// instead of continuing to measure. Cancellation is how a long-running
	// server quiesces a characterization whose requesters are all gone; a
	// cancelled run returns no partial result.
	Context context.Context
	// Progress, if non-nil, is called after each instruction. With multiple
	// workers the callbacks are serialized and the done count remains
	// monotonically increasing, but the variant completion order depends on
	// scheduling.
	Progress func(done, total int, name string)
	// Workers is the number of parallel characterization workers. Each worker
	// owns a complete simulator/harness/characterizer stack, forked from the
	// calling Characterizer for the run and dropped when it ends (the
	// simulator is stateful, so the run is sharded rather than locked); the
	// merged result is identical to a sequential run regardless of the
	// worker count. 0 or 1 runs sequentially on one fork; negative values
	// select DefaultWorkers(). Concurrent runs on one Characterizer each fork
	// their own stacks. Forking requires a forkable runner (a
	// *pipesim.Machine or a measure.RunnerForker); with any other runner the
	// run measures sequentially on the calling Characterizer, and such runs
	// take turns there. One loop shards both blocking-instruction discovery
	// and the variants under this count, and a panic on a worker — in a
	// callback or in measurement code — is re-raised on the calling
	// goroutine.
	Workers int
	// BlockingProgress, if non-nil, is called after each candidate during
	// blocking-instruction discovery, under the same serialization contract
	// as Progress.
	BlockingProgress func(done, total int, name string)
}

// skipReason classifies instructions that are not fully characterized,
// mirroring the limitations in Section 8 of the paper.
func skipReason(in *isa.Instr) string {
	switch {
	case in.IsSystem:
		return "system instruction"
	case in.IsSerializing:
		return "serializing instruction"
	case in.ControlFlow:
		return "control-flow instruction"
	case in.HasRep:
		return "REP prefix (variable µop count)"
	case in.HasLock:
		return "LOCK prefix"
	}
	return ""
}

// CharacterizeInstr fully characterizes a single instruction variant.
func (c *Characterizer) CharacterizeInstr(in *isa.Instr) (*InstrResult, error) {
	return c.characterizeInstr(in, Options{})
}

func (c *Characterizer) characterizeInstr(in *isa.Instr, opts Options) (*InstrResult, error) {
	result := &InstrResult{Name: in.Name, Mnemonic: in.Mnemonic}

	// The isolation kernel is measured once, for the µop count, the
	// port-usage profile and Throughput's isoInstances-long sequence.
	iso, err := c.measureIndependent(in, isoInstances)
	if err != nil {
		return nil, fmt.Errorf("core: measuring µops of %s: %w", in.Name, err)
	}
	result.Uops, result.UopsIssued = uopsOf(iso)

	if reason := skipReason(in); reason != "" {
		result.Skipped = reason
		return result, nil
	}

	if !opts.SkipLatency {
		lat, err := c.Latency(in)
		if err != nil {
			return nil, fmt.Errorf("core: measuring latency of %s: %w", in.Name, err)
		}
		result.Latency = lat
	}
	if result.Ports, err = c.portUsage(in, result.Latency.MaxLatency(), iso); err != nil {
		return nil, fmt.Errorf("core: measuring port usage of %s: %w", in.Name, err)
	}
	if result.Throughput, err = c.throughput(in, result.Ports, iso); err != nil {
		return nil, fmt.Errorf("core: measuring throughput of %s: %w", in.Name, err)
	}
	return result, nil
}

// CharacterizeAll characterizes every instruction variant of the target
// microarchitecture (or the subset named in opts.Only) and returns the
// aggregated results. With opts.Workers > 1 the variants are sharded across
// that many independent characterization stacks (see scheduler.go); the
// blocking-instruction set is discovered once and shared read-only.
func (c *Characterizer) CharacterizeAll(opts Options) (*ArchResult, error) {
	return c.CharacterizeResume(opts, nil)
}

// CharacterizeResume is the partial-results entry point of the scheduler:
// it characterizes only the variants of the selection that are missing from
// partial (a map of variant name to an already-measured record, e.g. loaded
// from a persistent per-variant cache) and merges the partial records into
// the returned result. Because every variant's measurement is independent of
// stack history, a resumed run is identical to a cold run over the same
// selection. Partial entries outside the selection are ignored; the Progress
// callback counts only the variants actually measured. A nil or empty
// partial map degenerates to CharacterizeAll.
func (c *Characterizer) CharacterizeResume(opts Options, partial map[string]*InstrResult) (*ArchResult, error) {
	if err := runCancelled(opts.Context); err != nil {
		return nil, err
	}
	instrs, err := c.resolveInstrs(opts)
	if err != nil {
		return nil, err
	}
	missing := instrs
	if len(partial) > 0 {
		missing = missing[:0:0]
		for _, in := range instrs {
			// A partial record that names a different variant than the slot
			// it sits in cannot be trusted (a corrupted or mislabeled cache
			// read slipped through): the variant is re-measured instead of
			// being served under the wrong name.
			if rec := partial[in.Name]; rec == nil || rec.Name != in.Name {
				missing = append(missing, in)
			}
		}
	}
	out := NewArchResult(c.gen.arch.Name())
	if len(missing) > 0 {
		// Blocking discovery — the dominant sequential cost of a run — is
		// only needed when something is actually measured, so a fully
		// covered resume is a pure merge.
		if err := c.ensureBlockingWith(opts); err != nil {
			return nil, err
		}
		// Results are merged by variant index, so the output is identical
		// to a sequential run regardless of worker count or scheduling.
		results := make([]*InstrResult, len(missing))
		sink := &progressSink{total: len(missing), fn: opts.Progress}
		err := c.shard(opts.Context, opts.Workers, len(missing), sink, func(w *Characterizer, i int) string {
			results[i] = w.characterizeOne(missing[i], opts)
			return missing[i].Name
		})
		if err != nil {
			return nil, err
		}
		for i, in := range missing {
			out.Results[in.Name] = results[i]
		}
	}
	for _, in := range instrs {
		if rec := partial[in.Name]; rec != nil && rec.Name == in.Name && out.Results[in.Name] == nil {
			out.Results[in.Name] = rec
		}
	}
	return out, nil
}
