package core

import (
	"math"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/isa"
	"uopsinfo/internal/lp"
	"uopsinfo/internal/measure"
	"uopsinfo/internal/pipesim"
)

// throughputSequenceLengths are the lengths of independent-instruction
// sequences tried when measuring throughput (Section 5.3.1: longer sequences
// sometimes behave worse because they touch more registers and memory
// locations, so several lengths are measured and the best is reported).
var throughputSequenceLengths = []int{1, 2, 4, 8}

// Throughput measures the instruction's throughput according to Definition 2
// (independent instances of the same instruction, Section 5.3.1) and computes
// the throughput according to Definition 1 from the port usage via the
// min-max-load problem (Section 5.3.2). The port usage may be nil, in which
// case only the measured throughput is produced.
func (c *Characterizer) Throughput(in *isa.Instr, ports PortUsage) (ThroughputResult, error) {
	iso, err := c.measureIndependent(in, isoInstances)
	if err != nil {
		return ThroughputResult{}, err
	}
	return c.throughput(in, ports, iso)
}

// throughput is Throughput given iso, the measurement of the variant's
// isolation kernel, which is its isoInstances-long sequence.
func (c *Characterizer) throughput(in *isa.Instr, ports PortUsage, iso measure.Result) (ThroughputResult, error) {
	var result ThroughputResult
	best := math.Inf(1)
	bestLen := 0
	for _, n := range throughputSequenceLengths {
		res := iso
		if n != isoInstances {
			seq, err := c.gen.independentInstances(in, n)
			if err != nil {
				continue
			}
			if res, err = c.gen.h.Measure(seq); err != nil {
				return result, err
			}
		}
		perInstr := res.Cycles / float64(n)
		if perInstr < best {
			best = perInstr
			bestLen = n
		}
	}
	result.Measured = best
	result.MeasuredSequenceLength = bestLen

	// For instructions with implicit operands that are both read and
	// written, also try sequences interleaved with dependency-breaking
	// instructions (the breakers consume execution resources themselves, so
	// this does not always help).
	if hasImplicitReadWrite(in) {
		if tp, err := c.throughputWithDepBreaking(in, 4); err == nil {
			result.WithDepBreaking = tp
		}
	}

	// Computed throughput (Definition 1) from the port usage. Not defined
	// for divider-based instructions (the divider is not fully pipelined).
	if len(ports) > 0 && !in.UsesDivider {
		// Build the LP input in PortUsage.Keys order: the solvers are
		// floating-point, so constraint order must not depend on map
		// iteration order.
		groups := make([]lp.PortGroup, 0, len(ports))
		for _, combo := range ports.Keys() {
			groups = append(groups, lp.PortGroup{Ports: combo, Count: ports[combo]})
		}
		if tp, err := lp.MinMaxLoad(groups, c.gen.arch.NumPorts()); err == nil {
			result.Computed = tp
		}
	}

	// Divider-based instructions: measure again with fast operand values.
	if in.UsesDivider {
		if setter, ok := c.gen.h.Runner().(measure.DividerValueSetter); ok {
			setter.SetDividerValues(pipesim.FastDividerValues)
			if seq, err := c.gen.independentInstances(in, 4); err == nil {
				if res, err := c.gen.h.Measure(seq); err == nil {
					result.FastValueMeasured = res.Cycles / 4
				}
			}
			setter.SetDividerValues(pipesim.SlowDividerValues)
		}
	}
	return result, nil
}

// throughputWithDepBreaking measures a sequence of n instances, each followed
// by dependency-breaking instructions for the implicit read-modify-write
// operands, and returns the cycles per instruction-under-test.
func (c *Characterizer) throughputWithDepBreaking(in *isa.Instr, n int) (float64, error) {
	alloc := c.gen.newAlloc()
	var seq asmgen.Sequence
	for i := 0; i < n; i++ {
		inst, err := c.gen.instantiate(in, nil, &alloc)
		if err != nil {
			alloc.Reset()
			inst, err = c.gen.instantiate(in, nil, &alloc)
			if err != nil {
				return 0, err
			}
		}
		seq = append(seq, inst)
		breakers, err := c.gen.depBreakersFor(in, &alloc)
		if err != nil {
			return 0, err
		}
		seq = append(seq, breakers...)
	}
	res, err := c.gen.h.Measure(seq)
	if err != nil {
		return 0, err
	}
	return res.Cycles / float64(n), nil
}

// hasImplicitReadWrite reports whether the instruction has an implicit
// operand that is both read and written.
func hasImplicitReadWrite(in *isa.Instr) bool {
	for _, op := range in.Operands {
		if op.Implicit && op.Read && op.Write {
			return true
		}
	}
	return false
}
