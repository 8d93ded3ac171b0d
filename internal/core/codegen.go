package core

import (
	"fmt"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/isa"
	"uopsinfo/internal/measure"
	"uopsinfo/internal/uarch"
)

// gen holds the state shared by the microbenchmark generators: the
// measurement harness, the instruction set of the target microarchitecture,
// a memory arena for distinct addresses, a cache of chain-instruction
// latencies measured in isolation, and the instances built once per
// variant: the independent instances of the variant asked for last, and
// every blocking instance built so far.
type gen struct {
	h     *measure.Harness
	arch  *uarch.Arch
	set   *isa.Set
	arena *asmgen.MemArena

	chainLat map[string]float64
	indep    independent
	blockers map[blocker]*asmgen.Inst
}

// independent is the sequence of independent instances of one variant
// (independentInstances), with the allocator that extends it and the error
// that ended it, if one did.
type independent struct {
	variant *isa.Instr
	alloc   asmgen.Allocator
	seq     asmgen.Sequence
	err     error
}

// blocker names a blocking instance: its variant and the register families
// it avoids (blockingInstance).
type blocker struct {
	variant *isa.Instr
	avoid   asmgen.RegSet
}

func newGen(h *measure.Harness) *gen {
	arch := h.Arch()
	return &gen{
		h:        h,
		arch:     arch,
		set:      arch.InstrSet(),
		arena:    asmgen.NewMemArena(),
		chainLat: make(map[string]float64),
		blockers: make(map[blocker]*asmgen.Inst),
	}
}

// newAlloc returns a fresh register allocator with the harness-reserved
// registers excluded.
func (g *gen) newAlloc() asmgen.Allocator {
	return asmgen.NewAllocator(asmgen.DefaultReserved...)
}

// defaultImm picks an immediate value for an operand: small shift counts for
// shift-like instructions, 1 otherwise.
func defaultImm(in *isa.Instr) int64 {
	switch in.Mnemonic {
	case "SHL", "SHR", "SAR", "ROL", "ROR", "RCL", "RCR", "SHLD", "SHRD",
		"PSLLW", "PSLLD", "PSLLQ", "PSRLW", "PSRLD", "PSRLQ", "PSRAW", "PSRAD",
		"PSLLDQ", "PSRLDQ", "RORX":
		return 3
	}
	return 1
}

// instantiate builds one concrete instance of the variant. fixed maps
// explicit-operand indices to pre-chosen operands; all other register
// operands are allocated from alloc (fresh registers, avoiding the families
// in avoid), memory operands get a fresh base register and address, and
// immediates get a default value.
func (g *gen) instantiate(in *isa.Instr, fixed map[int]asmgen.Operand, alloc *asmgen.Allocator, avoid ...asmgen.RegSet) (*asmgen.Inst, error) {
	// Implicit fixed registers (RAX for MUL, CL for variable shifts, ...)
	// must not be handed out for explicit operands.
	for _, op := range in.Operands {
		if op.Implicit && op.FixedReg != isa.RegNone {
			alloc.MarkUsed(op.FixedReg)
		}
	}
	expl := in.ExplicitOperands()
	ops := make([]asmgen.Operand, len(expl))
	for i, spec := range expl {
		if op, ok := fixed[i]; ok {
			ops[i] = op
			if op.Reg != isa.RegNone {
				alloc.MarkUsed(op.Reg)
			}
			if op.IsMem() {
				alloc.MarkUsed(op.Mem.Base)
			}
			continue
		}
		switch spec.Kind {
		case isa.OpReg:
			r, err := alloc.Fresh(spec.Class, avoid...)
			if err != nil {
				return nil, fmt.Errorf("core: instantiating %s: %w", in.Name, err)
			}
			ops[i] = asmgen.RegOperand(r)
		case isa.OpMem:
			base, err := alloc.Fresh(isa.ClassGPR64, avoid...)
			if err != nil {
				return nil, fmt.Errorf("core: instantiating %s: %w", in.Name, err)
			}
			ops[i] = asmgen.MemOperand(base, g.arena.Alloc(spec.Width/8))
		case isa.OpImm:
			ops[i] = asmgen.ImmOperand(defaultImm(in))
		}
	}
	return asmgen.NewInst(in, ops...)
}

// independentInstances returns n instances of the variant that avoid
// read-after-write dependencies between instances as far as possible
// (Section 5.3.1): registers and memory locations written by one instance
// are not read by a later one. Implicit operands that are both read and
// written cannot be decoupled.
//
// Instance i depends only on the instances before it, so the instances of
// every length are prefixes of one sequence, and an instance fails to build
// for every length that includes it. The gen builds that sequence once per
// variant, as far as the longest length asked for, and keeps it until
// another variant is asked for: the isolation kernel, Throughput's lengths
// and Algorithm 1's instruction under test all read it. Built again, the
// sequence would differ only in its memory addresses, which a reading
// numbers by first use (pipesim's reading key), so every measurement reads
// alike. The returned slice is valid until the next call for another
// variant, which reuses its array.
func (g *gen) independentInstances(in *isa.Instr, n int) (asmgen.Sequence, error) {
	ind := &g.indep
	if ind.variant != in {
		*ind = independent{variant: in, alloc: g.newAlloc(), seq: ind.seq[:0]}
	}
	for len(ind.seq) < n && ind.err == nil {
		inst, err := g.instantiate(in, nil, &ind.alloc)
		if err != nil {
			// The register class may be exhausted for large n; fall back to
			// reusing registers from the start of the sequence, which keeps
			// the instances pairwise independent as long as no instance
			// both reads and writes the reused register.
			ind.alloc.Reset()
			inst, err = g.instantiate(in, nil, &ind.alloc)
		}
		if err != nil {
			ind.err = err
			break
		}
		ind.seq = append(ind.seq, inst)
	}
	if len(ind.seq) < n {
		return nil, ind.err
	}
	return ind.seq[:n:n], nil
}

// blockingInstance returns the instance of the blocking variant in that
// Algorithm 1 repeats ahead of an instruction under test whose registers
// are in avoid's families: registers from a fresh allocator, avoiding
// those, and a fresh address for a memory operand. A fresh allocator makes
// the same choice every time, and a reading numbers addresses by first
// use, so the gen builds each (variant, avoid) pair's instance once.
func (g *gen) blockingInstance(in *isa.Instr, avoid asmgen.RegSet) (*asmgen.Inst, error) {
	key := blocker{variant: in, avoid: avoid}
	if inst, ok := g.blockers[key]; ok {
		return inst, nil
	}
	alloc := g.newAlloc()
	inst, err := g.instantiate(in, nil, &alloc, avoid)
	if err != nil {
		return nil, err
	}
	g.blockers[key] = inst
	return inst, nil
}

// lookupVariant returns a named variant of the target instruction set, or an
// error mentioning the microarchitecture.
func (g *gen) lookupVariant(name string) (*isa.Instr, error) {
	in := g.set.Lookup(name)
	if in == nil {
		return nil, fmt.Errorf("core: %s: instruction variant %q not available", g.arch.Name(), name)
	}
	return in, nil
}

// depBreakFlags returns an instruction that overwrites the status flags
// without reading them (and without writing any register), used to break
// unwanted implicit dependencies through the flags (Section 5.2). The scratch
// register is only read, so repeated instances are independent.
func (g *gen) depBreakFlags(alloc *asmgen.Allocator, avoid ...asmgen.RegSet) (*asmgen.Inst, error) {
	in, err := g.lookupVariant("TEST_R64_I32")
	if err != nil {
		return nil, err
	}
	r, err := alloc.Fresh(isa.ClassGPR64, avoid...)
	if err != nil {
		return nil, err
	}
	return asmgen.NewInst(in, asmgen.RegOperand(r), asmgen.ImmOperand(0))
}

// depBreakReg returns an instruction that overwrites register r without
// reading it: a move-immediate for general-purpose registers and a zero
// idiom for vector registers.
func (g *gen) depBreakReg(r isa.Reg) (*asmgen.Inst, error) {
	switch r.Class() {
	case isa.ClassGPR8, isa.ClassGPR16, isa.ClassGPR32, isa.ClassGPR64:
		in, err := g.lookupVariant("MOV_R64_I32")
		if err != nil {
			return nil, err
		}
		return asmgen.NewInst(in, asmgen.RegOperand(r.InFamily(isa.ClassGPR64)), asmgen.ImmOperand(1))
	case isa.ClassXMM:
		in, err := g.lookupVariant("PXOR_XMM_XMM")
		if err != nil {
			return nil, err
		}
		return asmgen.NewInst(in, asmgen.RegOperand(r), asmgen.RegOperand(r))
	case isa.ClassYMM:
		in, err := g.lookupVariant("VPXOR_YMM_YMM_YMM")
		if err != nil {
			return nil, err
		}
		return asmgen.NewInst(in, asmgen.RegOperand(r), asmgen.RegOperand(r), asmgen.RegOperand(r))
	case isa.ClassMMX:
		in, err := g.lookupVariant("PXOR_MM_MM")
		if err != nil {
			return nil, err
		}
		return asmgen.NewInst(in, asmgen.RegOperand(r), asmgen.RegOperand(r))
	}
	return nil, fmt.Errorf("core: no dependency-breaking instruction for register %s", r)
}

// depBreakersFor returns dependency-breaking instructions for all implicit
// operands of the variant that are both read and written (flags or fixed
// registers).
func (g *gen) depBreakersFor(in *isa.Instr, alloc *asmgen.Allocator) (asmgen.Sequence, error) {
	var seq asmgen.Sequence
	for _, op := range in.Operands {
		if !op.Implicit || !op.Read || !op.Write {
			continue
		}
		switch op.Kind {
		case isa.OpFlags:
			br, err := g.depBreakFlags(alloc)
			if err != nil {
				return nil, err
			}
			seq = append(seq, br)
		case isa.OpReg:
			if op.FixedReg == isa.RegNone {
				continue
			}
			br, err := g.depBreakReg(op.FixedReg)
			if err != nil {
				return nil, err
			}
			seq = append(seq, br)
		}
	}
	return seq, nil
}

// explicitIndex maps an operand index (into Operands) to the index among the
// explicit operands, or -1 for implicit operands.
func explicitIndex(in *isa.Instr, opIdx int) int {
	if opIdx < 0 || opIdx >= len(in.Operands) || in.Operands[opIdx].Implicit {
		return -1
	}
	n := 0
	for i := 0; i < opIdx; i++ {
		if !in.Operands[i].Implicit {
			n++
		}
	}
	return n
}
