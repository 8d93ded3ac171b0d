package core

import (
	"fmt"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/isa"
)

// testLatency is the latency attributed to the TEST instruction when it is
// used as a chain instruction (Section 5.2.3). TEST is a simple ALU operation
// whose register-to-flags latency is one cycle on all Intel Core
// generations; it serves as the calibration anchor for the flag chains.
const testLatency = 1.0

// chainKind selects the family of chain instruction used to close a
// register-to-register dependency chain (Section 5.2.1).
type chainKind int

const (
	// chainMOVSX uses MOVSX for general-purpose registers: it is never
	// subject to move elimination and avoids partial-register stalls.
	chainMOVSX chainKind = iota
	// chainIntShuffle uses an integer shuffle (PSHUFD) for SIMD registers.
	chainIntShuffle
	// chainFPShuffle uses a floating-point shuffle (MOVSHDUP) for SIMD
	// registers, to expose bypass delays between domains.
	chainFPShuffle
)

func (k chainKind) describe() string {
	switch k {
	case chainMOVSX:
		return "MOVSX chain"
	case chainIntShuffle:
		return "integer shuffle chain (PSHUFD)"
	case chainFPShuffle:
		return "floating-point shuffle chain (MOVSHDUP)"
	}
	return "chain"
}

// operandRegister returns the concrete register to use for an operand: the
// fixed register for implicit operands, a freshly allocated register of the
// operand's class otherwise.
func (c *Characterizer) operandRegister(in *isa.Instr, opIdx int, alloc *asmgen.Allocator) (isa.Reg, error) {
	op := in.Operands[opIdx]
	if op.Implicit {
		if op.FixedReg == isa.RegNone {
			return isa.RegNone, fmt.Errorf("implicit operand %s has no fixed register", op.Name)
		}
		alloc.MarkUsed(op.FixedReg)
		return op.FixedReg, nil
	}
	return alloc.Fresh(op.Class)
}

// chainInstruction builds the chain instruction C for a register pair: C
// reads a register in readReg's family (the instruction's destination d) and
// writes a register in writeReg's family (the instruction's source s). It
// returns the concrete instruction and C's own latency, measured in isolation
// and cached.
func (c *Characterizer) chainInstruction(kind chainKind, readReg, writeReg isa.Reg, readClass, writeClass isa.RegClass) (*asmgen.Inst, float64, error) {
	switch kind {
	case chainMOVSX:
		v, err := c.gen.lookupVariant("MOVSX_R64_R16")
		if err != nil {
			return nil, 0, err
		}
		src := readReg.InFamily(isa.ClassGPR16)
		dst := writeReg.InFamily(isa.ClassGPR64)
		if src == isa.RegNone || dst == isa.RegNone {
			return nil, 0, fmt.Errorf("registers %s/%s are not general-purpose registers", readReg, writeReg)
		}
		lat, err := c.chainLatency(v.Name)
		if err != nil {
			return nil, 0, err
		}
		return asmgen.MustInst(v, asmgen.RegOperand(dst), asmgen.RegOperand(src)), lat, nil

	case chainIntShuffle, chainFPShuffle:
		name, withImm, err := shuffleVariantFor(kind, readClass)
		if err != nil {
			return nil, 0, err
		}
		v, err := c.gen.lookupVariant(name)
		if err != nil {
			return nil, 0, err
		}
		lat, err := c.chainLatency(v.Name)
		if err != nil {
			return nil, 0, err
		}
		ops := []asmgen.Operand{asmgen.RegOperand(writeReg), asmgen.RegOperand(readReg)}
		if withImm {
			ops = append(ops, asmgen.ImmOperand(0x1b))
		}
		inst, err := asmgen.NewInst(v, ops...)
		if err != nil {
			return nil, 0, err
		}
		return inst, lat, nil
	}
	return nil, 0, fmt.Errorf("unknown chain kind %d", kind)
}

// shuffleVariantFor selects the shuffle chain variant for a SIMD register
// class.
func shuffleVariantFor(kind chainKind, class isa.RegClass) (name string, withImm bool, err error) {
	switch class {
	case isa.ClassXMM:
		if kind == chainIntShuffle {
			return "PSHUFD_XMM_XMM_I8", true, nil
		}
		return "MOVSHDUP_XMM_XMM", false, nil
	case isa.ClassYMM:
		if kind == chainIntShuffle {
			return "VPSHUFD_YMM_YMM_I8", true, nil
		}
		return "VMOVSHDUP_YMM_YMM", false, nil
	case isa.ClassMMX:
		if kind == chainIntShuffle {
			return "MOVQ_MM_MM", false, nil
		}
		return "", false, fmt.Errorf("no floating-point shuffle for MMX registers")
	}
	return "", false, fmt.Errorf("no shuffle chain instruction for register class %s", class)
}

// chainLatency measures the latency of a chain instruction in isolation: two
// instances are chained through alternating registers, and the cycles per
// instance give the latency. Results are cached per variant.
func (c *Characterizer) chainLatency(variantName string) (float64, error) {
	if lat, ok := c.gen.chainLat[variantName]; ok {
		return lat, nil
	}
	v, err := c.gen.lookupVariant(variantName)
	if err != nil {
		return 0, err
	}
	expl := v.ExplicitOperands()
	if len(expl) < 2 || expl[0].Kind != isa.OpReg || expl[1].Kind != isa.OpReg {
		return 0, fmt.Errorf("variant %s is not a two-register chain instruction", variantName)
	}
	alloc := c.gen.newAlloc()
	// The destination class and source class may differ (MOVSX); allocate
	// two families and use the right class member on each side.
	famA, err := alloc.Fresh(isa.ClassGPR64)
	if err != nil {
		return 0, err
	}
	famB, err := alloc.Fresh(isa.ClassGPR64)
	if err != nil {
		return 0, err
	}
	regIn := func(fam isa.Reg, class isa.RegClass) (isa.Reg, error) {
		if class.IsGPR() {
			return fam.InFamily(class), nil
		}
		return alloc.Fresh(class)
	}
	var a0, a1, b0, b1 isa.Reg
	if expl[0].Class.IsGPR() && expl[1].Class.IsGPR() {
		a0, _ = regIn(famA, expl[0].Class)
		a1, _ = regIn(famB, expl[1].Class)
		b0, _ = regIn(famB, expl[0].Class)
		b1, _ = regIn(famA, expl[1].Class)
	} else {
		// SIMD chain instructions use the same class for both operands.
		x, err := alloc.Fresh(expl[0].Class)
		if err != nil {
			return 0, err
		}
		y, err := alloc.Fresh(expl[1].Class)
		if err != nil {
			return 0, err
		}
		a0, a1, b0, b1 = x, y, y, x
	}
	mkOps := func(dst, src isa.Reg) []asmgen.Operand {
		ops := []asmgen.Operand{asmgen.RegOperand(dst), asmgen.RegOperand(src)}
		for i := 2; i < len(expl); i++ {
			ops = append(ops, asmgen.ImmOperand(0x1b))
		}
		return ops
	}
	i1, err := asmgen.NewInst(v, mkOps(a0, a1)...)
	if err != nil {
		return 0, err
	}
	i2, err := asmgen.NewInst(v, mkOps(b0, b1)...)
	if err != nil {
		return 0, err
	}
	res, err := c.gen.h.Measure(asmgen.Sequence{i1, i2})
	if err != nil {
		return 0, err
	}
	lat := res.Cycles / 2
	c.gen.chainLat[variantName] = lat
	return lat, nil
}

// doubleXOR builds the "XOR Ra, Rd ; XOR Ra, Rd" pair of Section 5.2.2 that
// creates a dependency from Rd to the address register Ra while leaving Ra's
// value unchanged.
func (c *Characterizer) doubleXOR(ra, rd isa.Reg) (asmgen.Sequence, error) {
	xor, err := c.gen.lookupVariant("XOR_R64_R64")
	if err != nil {
		return nil, err
	}
	x := asmgen.MustInst(xor, asmgen.RegOperand(ra), asmgen.RegOperand(rd))
	return asmgen.Sequence{x, x}, nil
}

// transferChain builds the instruction(s) that copy a value from register
// `from` to register `to` when the two registers have different types
// (Section 5.2.1: register pairs of different types have no common chain
// instruction).
func (c *Characterizer) transferChain(from, to isa.Reg) (asmgen.Sequence, error) {
	fromClass := from.Class()
	toClass := to.Class()
	build := func(name string, dst, src isa.Reg) (asmgen.Sequence, error) {
		v, err := c.gen.lookupVariant(name)
		if err != nil {
			return nil, err
		}
		inst, err := asmgen.NewInst(v, asmgen.RegOperand(dst), asmgen.RegOperand(src))
		if err != nil {
			return nil, err
		}
		return asmgen.Sequence{inst}, nil
	}
	switch {
	case fromClass.IsGPR() && (toClass == isa.ClassXMM || toClass == isa.ClassYMM):
		return build("MOVQ_XMM_R64", to.InFamily(isa.ClassXMM), from.InFamily(isa.ClassGPR64))
	case (fromClass == isa.ClassXMM || fromClass == isa.ClassYMM) && toClass.IsGPR():
		return build("MOVQ_R64_XMM", to.InFamily(isa.ClassGPR64), from.InFamily(isa.ClassXMM))
	case fromClass.IsGPR() && toClass == isa.ClassMMX:
		return build("MOVQ_MM_R64", to, from.InFamily(isa.ClassGPR64))
	case fromClass == isa.ClassMMX && toClass.IsGPR():
		return build("MOVQ_R64_MM", to.InFamily(isa.ClassGPR64), from)
	case fromClass == isa.ClassMMX && (toClass == isa.ClassXMM || toClass == isa.ClassYMM):
		return build("MOVQ2DQ_XMM_MM", to.InFamily(isa.ClassXMM), from)
	case (fromClass == isa.ClassXMM || fromClass == isa.ClassYMM) && toClass == isa.ClassMMX:
		return build("MOVDQ2Q_MM_XMM", to, from.InFamily(isa.ClassXMM))
	case fromClass.IsGPR() && toClass.IsGPR():
		return build("MOVSX_R64_R16", to.InFamily(isa.ClassGPR64), from.InFamily(isa.ClassGPR16))
	case (fromClass == isa.ClassXMM || fromClass == isa.ClassYMM) &&
		(toClass == isa.ClassXMM || toClass == isa.ClassYMM):
		return build("MOVSHDUP_XMM_XMM", to.InFamily(isa.ClassXMM), from.InFamily(isa.ClassXMM))
	}
	return nil, fmt.Errorf("no transfer instruction from %s to %s", fromClass, toClass)
}

// breakOtherDeps returns dependency-breaking instructions for every operand
// that is both read and written by the instruction and is not the source
// operand of the chain being measured (Section 5.2: such operands would
// otherwise introduce loop-carried dependencies that hide the latency of the
// pair under test).
func (c *Characterizer) breakOtherDeps(in *isa.Instr, inst *asmgen.Inst, alloc *asmgen.Allocator, s, d int) (asmgen.Sequence, error) {
	var seq asmgen.Sequence
	avoid := inst.RegsUsed()
	for i, op := range in.Operands {
		if i == s {
			continue // the intended dependency path
		}
		if !op.Read || !op.Write {
			continue // no loop-carried dependency through this operand
		}
		switch op.Kind {
		case isa.OpFlags:
			br, err := c.gen.depBreakFlags(alloc, avoid)
			if err != nil {
				return nil, err
			}
			seq = append(seq, br)
		case isa.OpReg:
			conc := inst.OperandFor(i)
			if conc.Reg == isa.RegNone {
				continue
			}
			// Do not overwrite the register that carries the intended chain
			// (the destination operand d feeds the chain instruction, which
			// appears before these breakers in the iteration, so breaking it
			// afterwards is safe — but if d and s share a register the
			// breaker would cut the chain).
			if i == d && conc.Reg.Family() == inst.OperandFor(s).Reg.Family() {
				continue
			}
			br, err := c.gen.depBreakReg(conc.Reg)
			if err != nil {
				return nil, err
			}
			seq = append(seq, br)
		case isa.OpMem:
			// A read-modify-write memory operand: the loop-carried
			// dependency goes through memory; it cannot be broken without
			// changing the address, which would alter the instruction.
		}
	}
	return seq, nil
}

// pickFlagReader returns a SETcc variant whose condition reads only flags
// written by the instruction (used to close register-to-flags chains).
func (c *Characterizer) pickFlagReader(written isa.FlagSet) *isa.Instr {
	candidates := []struct {
		name string
		flag isa.Flag
	}{
		{"SETZ_R8", isa.FlagZF},
		{"SETB_R8", isa.FlagCF},
		{"SETS_R8", isa.FlagSF},
		{"SETO_R8", isa.FlagOF},
		{"SETP_R8", isa.FlagPF},
	}
	for _, cand := range candidates {
		if !written.Has(cand.flag) {
			continue
		}
		if v := c.gen.set.Lookup(cand.name); v != nil {
			return v
		}
	}
	return nil
}

// setccLatency measures the flags-to-register latency of a SETcc variant by
// chaining it with TEST (whose latency anchors the chain).
func (c *Characterizer) setccLatency(setcc *isa.Instr) (float64, error) {
	key := "setcc:" + setcc.Name
	if lat, ok := c.gen.chainLat[key]; ok {
		return lat, nil
	}
	test, err := c.gen.lookupVariant("TEST_R64_R64")
	if err != nil {
		return 0, err
	}
	alloc := c.gen.newAlloc()
	fam, err := alloc.Fresh(isa.ClassGPR64)
	if err != nil {
		return 0, err
	}
	r8 := fam.InFamily(isa.ClassGPR8)
	iteration := asmgen.Sequence{
		asmgen.MustInst(setcc, asmgen.RegOperand(r8)),
		asmgen.MustInst(test, asmgen.RegOperand(fam), asmgen.RegOperand(fam)),
	}
	cycles, err := c.measureChainIteration(iteration)
	if err != nil {
		return 0, err
	}
	lat := cycles - testLatency
	if lat < 0 {
		lat = 0
	}
	c.gen.chainLat[key] = lat
	return lat, nil
}

// valuePinSequence builds the AND/OR pair of Section 5.2.5 that re-pins a
// register to a chosen test value each iteration while keeping the
// dependency chain through that register intact.
func (c *Characterizer) valuePinSequence(pinReg isa.Reg, alloc *asmgen.Allocator) (asmgen.Sequence, error) {
	var andName, orName string
	switch pinReg.Class() {
	case isa.ClassGPR8, isa.ClassGPR16, isa.ClassGPR32, isa.ClassGPR64:
		andName, orName = "AND_R64_R64", "OR_R64_R64"
		pinReg = pinReg.InFamily(isa.ClassGPR64)
	case isa.ClassXMM:
		andName, orName = "PAND_XMM_XMM", "POR_XMM_XMM"
	case isa.ClassYMM:
		andName, orName = "VPAND_YMM_YMM_YMM", "VPOR_YMM_YMM_YMM"
	case isa.ClassMMX:
		andName, orName = "PAND_MM_MM", "POR_MM_MM"
	default:
		return nil, fmt.Errorf("no value-pinning instructions for register %s", pinReg)
	}
	andV, err := c.gen.lookupVariant(andName)
	if err != nil {
		return nil, err
	}
	orV, err := c.gen.lookupVariant(orName)
	if err != nil {
		return nil, err
	}
	valueReg, err := alloc.Fresh(pinReg.Class())
	if err != nil {
		return nil, err
	}
	mk := func(v *isa.Instr) (*asmgen.Inst, error) {
		if len(v.ExplicitOperands()) == 3 {
			return asmgen.NewInst(v, asmgen.RegOperand(pinReg), asmgen.RegOperand(pinReg), asmgen.RegOperand(valueReg))
		}
		return asmgen.NewInst(v, asmgen.RegOperand(pinReg), asmgen.RegOperand(valueReg))
	}
	a, err := mk(andV)
	if err != nil {
		return nil, err
	}
	o, err := mk(orV)
	if err != nil {
		return nil, err
	}
	return asmgen.Sequence{a, o}, nil
}
