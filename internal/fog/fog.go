// Package fog implements the measurement conventions of prior work that the
// paper compares against (Section 2.2 and Section 7.3):
//
//   - the isolation-based port-usage attribution used by Agner Fog's
//     instruction tables, which measures the average number of µops on each
//     port when the instruction runs on its own and therefore cannot
//     distinguish, e.g., 2*p05 from 1*p0+1*p5 (Section 5.1);
//   - single-value latency measurements in the two conventions the paper
//     identifies: different registers for all operands (Fog), which measures
//     only the implicit dependency on the read-modify-write operand, and the
//     same register for all operands (Granlund, AIDA64), which measures the
//     maximum over all operand pairs (Section 7.3.2);
//   - naive throughput measurements without dependency-breaking
//     instructions.
//
// These baselines exist so the paper's "prior work is less accurate/precise"
// comparisons can be regenerated against the same simulated hardware.
//
//uopslint:deterministic
package fog

import (
	"fmt"
	"math"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/isa"
	"uopsinfo/internal/measure"
	"uopsinfo/internal/uarch"
)

// Baseline runs the prior-work measurement conventions on a measurement
// harness.
type Baseline struct {
	h     *measure.Harness
	arena *asmgen.MemArena
}

// New returns a Baseline for the given harness.
func New(h *measure.Harness) *Baseline {
	return &Baseline{h: h, arena: asmgen.NewMemArena()}
}

// PortObservation is the raw isolation measurement: average µops per port per
// instruction execution.
type PortObservation struct {
	PerPort []float64
	Total   float64
}

// ObservePorts measures the instruction in isolation (a sequence of
// independent instances) and returns the per-port µop averages.
func (b *Baseline) ObservePorts(in *isa.Instr, n int) (PortObservation, error) {
	seq, err := b.independent(in, n)
	if err != nil {
		return PortObservation{}, err
	}
	res, err := b.h.Measure(seq)
	if err != nil {
		return PortObservation{}, err
	}
	obs := PortObservation{PerPort: make([]float64, b.h.Arch().NumPorts())}
	for p := range obs.PerPort {
		obs.PerPort[p] = res.PortUops[p] / float64(n)
	}
	obs.Total = res.TotalUops / float64(n)
	return obs, nil
}

// AttributePorts converts an isolation observation into a port usage the
// way a human reading the averages would (the approach the paper attributes
// to prior work): ports with a µop count close to an integer get that many
// dedicated µops, and the remaining fractional ports are merged into a
// single combination.
func AttributePorts(obs PortObservation) uarch.Usage {
	usage := make(uarch.Usage)
	var fractionalPorts uarch.PortSet
	fractionalSum := 0.0
	for p, u := range obs.PerPort {
		if u < 0.1 {
			continue
		}
		whole := math.Floor(u + 0.25)
		frac := u - whole
		if whole >= 1 {
			usage[uarch.NewPortSet(p)] += int(whole)
		}
		if frac >= 0.1 {
			fractionalPorts |= uarch.NewPortSet(p)
			fractionalSum += frac
		}
	}
	if fractionalPorts != 0 {
		count := int(fractionalSum + 0.5)
		if count < 1 {
			count = 1
		}
		usage[fractionalPorts] += count
	}
	return usage
}

// PortUsageIsolation runs the full isolation-based attribution.
func (b *Baseline) PortUsageIsolation(in *isa.Instr) (uarch.Usage, error) {
	obs, err := b.ObservePorts(in, 8)
	if err != nil {
		return nil, err
	}
	return AttributePorts(obs), nil
}

// LatencyDistinctRegisters measures the latency with distinct registers for
// all explicit operands (Agner Fog's convention): the only loop-carried
// dependencies are through operands that are both read and written, so the
// result is the latency of the read-modify-write operand pair only.
func (b *Baseline) LatencyDistinctRegisters(in *isa.Instr) (float64, error) {
	inst, err := b.instance(in, false)
	if err != nil {
		return 0, err
	}
	res, err := b.h.Measure(asmgen.Sequence{inst})
	if err != nil {
		return 0, err
	}
	return res.Cycles, nil
}

// LatencySameRegister measures the latency with the same register for all
// explicit register operands (the Granlund / AIDA64 convention): the chain
// goes through every operand pair, so the result is the maximum pair latency
// — unless using the same register changes the instruction's behaviour, as
// for SHLD on Skylake or the zero idioms.
func (b *Baseline) LatencySameRegister(in *isa.Instr) (float64, error) {
	inst, err := b.instance(in, true)
	if err != nil {
		return 0, err
	}
	res, err := b.h.Measure(asmgen.Sequence{inst})
	if err != nil {
		return 0, err
	}
	return res.Cycles, nil
}

// Throughput measures the naive throughput: n independent instances, no
// dependency breaking.
func (b *Baseline) Throughput(in *isa.Instr, n int) (float64, error) {
	seq, err := b.independent(in, n)
	if err != nil {
		return 0, err
	}
	res, err := b.h.Measure(seq)
	if err != nil {
		return 0, err
	}
	return res.Cycles / float64(n), nil
}

// instance builds one concrete instance; with sameReg set, all explicit
// register operands of the same class share one register.
func (b *Baseline) instance(in *isa.Instr, sameReg bool) (*asmgen.Inst, error) {
	alloc := asmgen.NewAllocator(asmgen.DefaultReserved...)
	for _, op := range in.Operands {
		if op.Implicit && op.FixedReg != isa.RegNone {
			alloc.MarkUsed(op.FixedReg)
		}
	}
	shared := make(map[isa.RegClass]isa.Reg)
	expl := in.ExplicitOperands()
	ops := make([]asmgen.Operand, len(expl))
	for i, spec := range expl {
		switch spec.Kind {
		case isa.OpReg:
			if sameReg {
				if r, ok := shared[spec.Class]; ok {
					ops[i] = asmgen.RegOperand(r)
					continue
				}
			}
			r, err := alloc.Fresh(spec.Class)
			if err != nil {
				return nil, err
			}
			shared[spec.Class] = r
			ops[i] = asmgen.RegOperand(r)
		case isa.OpMem:
			base, err := alloc.Fresh(isa.ClassGPR64)
			if err != nil {
				return nil, err
			}
			ops[i] = asmgen.MemOperand(base, b.arena.Alloc(spec.Width/8))
		case isa.OpImm:
			ops[i] = asmgen.ImmOperand(1)
		}
	}
	return asmgen.NewInst(in, ops...)
}

// independent builds n instances with fresh registers per instance.
func (b *Baseline) independent(in *isa.Instr, n int) (asmgen.Sequence, error) {
	alloc := asmgen.NewAllocator(asmgen.DefaultReserved...)
	for _, op := range in.Operands {
		if op.Implicit && op.FixedReg != isa.RegNone {
			alloc.MarkUsed(op.FixedReg)
		}
	}
	var seq asmgen.Sequence
	for i := 0; i < n; i++ {
		inst, err := b.instanceFrom(in, &alloc)
		if err != nil {
			alloc.Reset()
			inst, err = b.instanceFrom(in, &alloc)
			if err != nil {
				return nil, fmt.Errorf("fog: building independent instances of %s: %w", in.Name, err)
			}
		}
		seq = append(seq, inst)
	}
	return seq, nil
}

func (b *Baseline) instanceFrom(in *isa.Instr, alloc *asmgen.Allocator) (*asmgen.Inst, error) {
	expl := in.ExplicitOperands()
	ops := make([]asmgen.Operand, len(expl))
	for i, spec := range expl {
		switch spec.Kind {
		case isa.OpReg:
			r, err := alloc.Fresh(spec.Class)
			if err != nil {
				return nil, err
			}
			ops[i] = asmgen.RegOperand(r)
		case isa.OpMem:
			base, err := alloc.Fresh(isa.ClassGPR64)
			if err != nil {
				return nil, err
			}
			ops[i] = asmgen.MemOperand(base, b.arena.Alloc(spec.Width/8))
		case isa.OpImm:
			ops[i] = asmgen.ImmOperand(1)
		}
	}
	return asmgen.NewInst(in, ops...)
}
