package core

import (
	"fmt"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/isa"
	"uopsinfo/internal/measure"
)

// maxBlockRep caps the number of blocking-instruction copies per measurement.
// The paper uses maxLatency * number of ports; the cap keeps pathological
// latency estimates from exploding the benchmark size on the simulator.
const maxBlockRep = 256

// PortUsage infers the port usage of the instruction using Algorithm 1 of the
// paper: for every port combination (processed in order of increasing size),
// the instruction is run after a long sequence of blocking instructions for
// that combination; the µops measured on the combination's ports, minus the
// blocking µops and minus the µops already attributed to strict subsets, can
// only execute on exactly that combination.
//
// maxLatency is the maximum operand-pair latency of the instruction (used to
// size the blocking sequences); pass 0 to let the function estimate it.
func (c *Characterizer) PortUsage(in *isa.Instr, maxLatency float64) (PortUsage, error) {
	iso, err := c.measureIndependent(in, isoInstances)
	if err != nil {
		return nil, err
	}
	return c.portUsage(in, maxLatency, iso)
}

// portUsage is PortUsage given iso, the measurement of the variant's
// isolation kernel (isoInstances independent instances).
func (c *Characterizer) portUsage(in *isa.Instr, maxLatency float64, iso measure.Result) (PortUsage, error) {
	if err := c.ensureBlocking(); err != nil {
		return nil, err
	}
	blocking := c.blocking.For(in)

	// The instruction in isolation: total µop count and the ports used,
	// which restricts the combinations the loop has to consider.
	isoPorts, _, isoUops := profileOf(iso, isoInstances)
	totalUops := isoUops
	if totalUops < 0.4 {
		// All µops are handled at rename (NOPs, eliminated moves).
		return PortUsage{}, nil
	}
	if maxLatency <= 0 {
		maxLatency = c.estimateMaxLatency(in)
	}
	blockRep := int(maxLatency+0.999) * c.gen.arch.NumPorts()
	if blockRep < 8 {
		blockRep = 8
	}
	if blockRep > maxBlockRep {
		blockRep = maxBlockRep
	}

	usage := make(PortUsage)
	attributed := 0.0

	// The instance of the instruction under test, the first of its
	// independent instances; the blocking instructions must avoid its
	// registers.
	first, err := c.gen.independentInstances(in, 1)
	if err != nil {
		return nil, err
	}
	testInst := first[0]
	avoid := testInst.RegsUsed()

	for _, combo := range c.combos(in) {
		if combo&isoPorts == 0 {
			continue // the instruction never uses these ports
		}
		b := blocking[combo]
		// One instance of the blocking instruction serves all blockRep
		// copies: written registers are renamed by the hardware, and the
		// source registers are never written, so the copies are
		// independent of each other and of the measured instruction.
		blockInst, err := c.gen.blockingInstance(b.Instr, avoid)
		if err != nil {
			return nil, fmt.Errorf("core: building blocking sequence for %s: %w", b.Instr.Name, err)
		}
		res, err := c.gen.h.Measure(c.portKernel(blockInst, blockRep, testInst))
		if err != nil {
			return nil, err
		}
		uops := res.UopsOnPorts(combo)
		uops -= float64(blockRep) * b.UopsOnCombo
		// Subtract µops already attributed to strict subsets of this
		// combination.
		for prev, prevUops := range usage {
			if prev != combo && prev.SubsetOf(combo) {
				uops -= prevUops
			}
		}
		if uops > 0.5 {
			n := float64(int(uops + 0.5))
			usage[combo] = n
			attributed += n
		}
		if attributed >= totalUops-0.25 {
			break // all µops attributed (the early-exit optimization)
		}
	}
	return usage, nil
}

// portKernel returns the kernel of one port combination: blockRep copies of
// the blocking instance, then the instruction under test. It is built in
// c.kernel, which the next call overwrites: runners keep no sequence (the
// seqretain analyzer checks it) and the reading table keys on content, so
// one buffer serves every combination.
func (c *Characterizer) portKernel(block *asmgen.Inst, blockRep int, test *asmgen.Inst) asmgen.Sequence {
	code := c.kernel[:0]
	for i := 0; i < blockRep; i++ {
		code = append(code, block)
	}
	c.kernel = append(code, test)
	return c.kernel
}

// estimateMaxLatency produces a quick upper estimate of the instruction's
// maximum operand-pair latency by running a self-dependent sequence (all
// instances sharing registers: the first of its independent instances,
// repeated) and taking the cycles per instruction.
func (c *Characterizer) estimateMaxLatency(in *isa.Instr) float64 {
	first, err := c.gen.independentInstances(in, 1)
	if err != nil {
		return 4
	}
	const n = 8
	seq := make(asmgen.Sequence, 0, n)
	for i := 0; i < n; i++ {
		seq = append(seq, first[0])
	}
	res, err := c.gen.h.Measure(seq)
	if err != nil {
		return 4
	}
	lat := res.Cycles / n
	if lat < 1 {
		lat = 1
	}
	if lat > 64 {
		lat = 64
	}
	return lat
}

// isoInstances is the number of independent instances in a variant's
// isolation kernel. The µop count, the port-usage profile and Throughput's
// sequence of that length all read this kernel, so characterizeInstr
// measures it once and hands the measurement to each.
const isoInstances = 4

// MeasuredUops returns the measured µop counts of the instruction: µops
// dispatched to execution ports and µops issued (including those handled at
// rename), per execution.
func (c *Characterizer) MeasuredUops(in *isa.Instr) (portUops, issuedUops float64, err error) {
	iso, err := c.measureIndependent(in, isoInstances)
	if err != nil {
		return 0, 0, err
	}
	portUops, issuedUops = uopsOf(iso)
	return portUops, issuedUops, nil
}

// uopsOf returns MeasuredUops's counts from iso, the measurement of the
// variant's isolation kernel.
func uopsOf(iso measure.Result) (portUops, issuedUops float64) {
	return iso.TotalUops / isoInstances, iso.IssuedUops / isoInstances
}

// ensureBlocking lazily discovers the blocking instructions (sequentially).
func (c *Characterizer) ensureBlocking() error {
	return c.ensureBlockingWith(Options{})
}

// ensureBlockingWith lazily discovers the blocking instructions, sharding the
// candidate measurements across opts.Workers stacks.
func (c *Characterizer) ensureBlockingWith(opts Options) error {
	if c.blocking != nil {
		return nil
	}
	if _, err := c.DiscoverBlocking(opts); err != nil {
		return fmt.Errorf("core: discovering blocking instructions: %w", err)
	}
	return nil
}
