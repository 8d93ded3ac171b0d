// Package measure implements the measurement protocol of the paper
// (Algorithm 2, Section 6.2): the benchmark code is wrapped in state
// save/restore and serializing instructions, run with two different numbers
// of copies of the code under test, and the difference of the two readings is
// divided by the difference in copy count, which removes the constant
// overhead of the serialization and counter reads. The whole procedure is
// repeated and averaged.
//
// On real hardware the protocol runs in kernel space with interrupts
// disabled; here it runs on the pipesim simulator, which plays the role of
// the processor. The fixed overhead of the serializing instructions and
// counter reads is modelled explicitly so that the differencing step of the
// protocol remains meaningful.
//
//uopslint:deterministic
package measure

import (
	"fmt"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/pipesim"
	"uopsinfo/internal/uarch"
)

// Runner abstracts the execution substrate (the simulated processor). It is
// implemented by *pipesim.Machine.
//
// Run is a pure function of the code and the divider-value regime the
// runner is set to: the same code under the same regime always yields the
// same counters, whatever ran before (TestRunDifferentialAcrossForks pins
// this for pipesim). The harness relies on it to read each copy count once.
//
// Run must not retain code after returning: callers may reuse its backing
// array.
type Runner interface {
	Run(code asmgen.Sequence) (pipesim.Counters, error)
	Arch() *uarch.Arch
}

// DividerValueSetter is implemented by runners that can switch the
// operand-value regime for divider-based instructions (Section 5.2.5), as
// *pipesim.Machine does.
type DividerValueSetter interface {
	SetDividerValues(pipesim.DividerValues)
}

// CopiesRunner is implemented by runners that repeat a kernel themselves:
// *pipesim.Machine renames it n times within one simulated run, and the
// fleet runner ships it once with all its copy counts in one request, so
// one measurement costs one round trip. RunCopies writes to out[i], for
// each copy count copies[i], the counters Run would return for
// code.Repeat(copies[i]): exactly len(copies) readings, into an out that
// holds at least that many. Since readings are pure, RunCopies may answer
// one from a table instead of running it: *pipesim.Machine recalls
// readings that any Machine sharing its reading table took before — its
// clones, and every Machine one engine builds, of any generation — within
// a fixed memory budget (and so do the fleet workers' engines behind the
// fleet runner). On an error, what out holds is unspecified.
//
// Like Run, RunCopies must not retain code after returning, and it retains
// neither copies nor out either: the harness passes the same two buffers
// to every call, so that a measurement of recalled readings allocates
// nothing.
type CopiesRunner interface {
	Runner
	RunCopies(code asmgen.Sequence, copies []int, out []pipesim.Counters) error
}

var _ CopiesRunner = (*pipesim.Machine)(nil)

// RunCopies writes to out[i], for each copy count copies[i], the counters
// of code.Repeat(copies[i]) on r: in one RunCopies call when r is a
// CopiesRunner, otherwise as one Run of the materialized copies per count,
// stopping at the first error. out must hold at least len(copies) entries.
func RunCopies(r Runner, code asmgen.Sequence, copies []int, out []pipesim.Counters) error {
	if cr, ok := r.(CopiesRunner); ok {
		return cr.RunCopies(code, copies, out)
	}
	out = out[:len(copies)]
	for i, n := range copies {
		c, err := r.Run(code.Repeat(n))
		if err != nil {
			return err
		}
		out[i] = c
	}
	return nil
}

// Result holds per-execution averages of the performance counters for one
// copy of the measured code sequence. Like pipesim.Counters, PortUops holds
// one entry per port of the measured generation, then zeros.
type Result struct {
	Cycles     float64
	PortUops   [pipesim.MaxPorts]float64
	TotalUops  float64
	IssuedUops float64
	ElimUops   float64
}

// UopsOnPorts sums the µops dispatched to the given ports.
func (r Result) UopsOnPorts(ports uarch.PortSet) float64 {
	sum := 0.0
	for p, u := range r.PortUops {
		if ports.Has(p) {
			sum += u
		}
	}
	return sum
}

// Config controls the measurement protocol.
type Config struct {
	// ShortCopies and LongCopies are the two copy counts whose difference
	// cancels the constant overhead. The paper uses 10 and 110; the
	// noise-free simulator allows smaller values, which the default config
	// uses to keep full-ISA runs fast.
	ShortCopies int
	LongCopies  int
	// Repetitions is the number of times the protocol is repeated and
	// averaged (100 in the paper).
	Repetitions int
	// Warmup enables a discarded warm-up run before the measurements. The
	// warm-up runs the short copy count, and runners are pure, so the
	// warm-up reading is the short reading and the harness takes it once.
	// The field stays because it is part of the measurement digest that
	// keys stored results.
	Warmup bool
	// OverheadCycles and OverheadUops model the serializing instructions and
	// performance-counter reads included in each raw reading.
	OverheadCycles int
	OverheadUops   int
}

// DefaultConfig returns the configuration used for full-ISA characterization
// runs on the simulator.
func DefaultConfig() Config {
	return Config{ShortCopies: 2, LongCopies: 12, Repetitions: 1, Warmup: true,
		OverheadCycles: 42, OverheadUops: 8}
}

// PaperConfig returns the copy counts and repetition count used by the paper
// on real hardware (n=10 and n=110, 100 repetitions).
func PaperConfig() Config {
	return Config{ShortCopies: 10, LongCopies: 110, Repetitions: 100, Warmup: true,
		OverheadCycles: 42, OverheadUops: 8}
}

// RunnerForker is implemented by runners that can create an independent copy
// of themselves. Forked runners share no mutable state with their parent and
// can therefore run on different goroutines without synchronization, which is
// what the sharded characterization scheduler relies on.
type RunnerForker interface {
	ForkRunner() Runner
}

// Harness runs the measurement protocol on a Runner.
//
// A Harness is no safer for concurrent use than its runner, which carries
// per-run state, and than its own buffers; Fork creates independent
// harnesses for concurrent workers.
type Harness struct {
	runner Runner
	cfg    Config
	// copies holds the short and the long copy count, and readings the two
	// readings of the Measure in progress: every RunCopies call fills the
	// same buffers.
	copies   [2]int
	readings [2]pipesim.Counters
}

// New returns a harness with the default configuration.
func New(runner Runner) *Harness { return NewWithConfig(runner, DefaultConfig()) }

// NewWithConfig returns a harness with an explicit configuration.
func NewWithConfig(runner Runner, cfg Config) *Harness {
	if cfg.ShortCopies <= 0 {
		cfg.ShortCopies = 2
	}
	if cfg.LongCopies <= cfg.ShortCopies {
		cfg.LongCopies = cfg.ShortCopies + 10
	}
	if cfg.Repetitions <= 0 {
		cfg.Repetitions = 1
	}
	return &Harness{runner: runner, cfg: cfg, copies: [2]int{cfg.ShortCopies, cfg.LongCopies}}
}

// Arch returns the microarchitecture being measured.
func (h *Harness) Arch() *uarch.Arch { return h.runner.Arch() }

// Runner returns the underlying execution substrate (e.g. to switch the
// operand-value regime for divider-based instructions).
func (h *Harness) Runner() Runner { return h.runner }

// Config returns the harness configuration.
func (h *Harness) Config() Config { return h.cfg }

// Fork returns a Harness with the same configuration driving an independent
// copy of the runner, for use on another goroutine. It fails if the runner
// cannot be forked.
func (h *Harness) Fork() (*Harness, error) {
	switch r := h.runner.(type) {
	case RunnerForker:
		return NewWithConfig(r.ForkRunner(), h.cfg), nil
	case *pipesim.Machine:
		return NewWithConfig(r.Clone(), h.cfg), nil
	}
	return nil, fmt.Errorf("measure: runner %T cannot be forked", h.runner)
}

// Measure runs the protocol on the given code sequence and returns per-copy
// averages: the counters for executing the sequence once, with harness
// overhead removed.
//
// Runners are pure, so every reading of one copy count is the same reading:
// Measure takes one short and one long reading (the warm-up reading is the
// short one) and feeds that pair to every repetition, which yields exactly
// the averages of re-reading both on each repetition. The readings go into
// the harness's own buffers, so a Measure whose readings a CopiesRunner
// recalls allocates nothing.
func (h *Harness) Measure(code asmgen.Sequence) (Result, error) {
	if len(code) == 0 {
		return Result{}, fmt.Errorf("measure: empty code sequence")
	}
	if err := RunCopies(h.runner, code, h.copies[:], h.readings[:]); err != nil {
		return Result{}, err
	}
	diff := h.withOverhead(h.readings[1]).Sub(h.withOverhead(h.readings[0]))
	var acc Result
	scale := float64(h.cfg.LongCopies - h.cfg.ShortCopies)
	for rep := 0; rep < h.cfg.Repetitions; rep++ {
		acc.Cycles += float64(diff.Cycles) / scale
		acc.TotalUops += float64(diff.TotalUops) / scale
		acc.IssuedUops += float64(diff.IssuedUops) / scale
		acc.ElimUops += float64(diff.ElimUops) / scale
		for p, u := range diff.PortUops {
			acc.PortUops[p] += float64(u) / scale
		}
	}
	inv := 1.0 / float64(h.cfg.Repetitions)
	acc.Cycles *= inv
	acc.TotalUops *= inv
	acc.IssuedUops *= inv
	acc.ElimUops *= inv
	for p := range acc.PortUops {
		acc.PortUops[p] *= inv
	}
	return acc, nil
}

// withOverhead adds the modelled measurement overhead (Algorithm 2 lines
// 3-9: serializing instructions and counter reads) to the counters of one
// n-copy run.
func (h *Harness) withOverhead(c pipesim.Counters) pipesim.Counters {
	c.Cycles += h.cfg.OverheadCycles
	c.TotalUops += h.cfg.OverheadUops
	c.IssuedUops += h.cfg.OverheadUops
	// The counter-read and serialization µops execute on the general ALU
	// ports; spread them so port readings also contain overhead that the
	// differencing must remove.
	for i := 0; i < h.cfg.OverheadUops; i++ {
		c.PortUops[i%2]++
	}
	return c
}
