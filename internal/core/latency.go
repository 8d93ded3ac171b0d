package core

import (
	"fmt"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/isa"
	"uopsinfo/internal/measure"
	"uopsinfo/internal/pipesim"
)

// Latency measures the latency of the instruction for every pair of source
// and destination operands (Section 5.2). Each pair gets its own
// automatically constructed dependency chain; unwanted additional
// dependencies (implicit read-modify-write operands such as the status flags,
// or an explicit read-modify-write destination when measuring a different
// source) are broken with dependency-breaking instructions.
func (c *Characterizer) Latency(in *isa.Instr) (LatencyResult, error) {
	var result LatencyResult
	if in.UsesDivider {
		return c.dividerLatency(in)
	}
	dests := in.DestOperands()
	for _, s := range in.SourceOperands() {
		for _, d := range dests {
			pairs, err := c.latencyPair(in, s, d)
			if err != nil {
				// Record the failure as a note instead of aborting the whole
				// instruction: some pairs are not measurable.
				result.Pairs = append(result.Pairs, OperandPairLatency{
					Source: s, Dest: d,
					SourceName: in.Operands[s].Name, DestName: in.Operands[d].Name,
					Notes: "not measured: " + err.Error(),
				})
				continue
			}
			result.Pairs = append(result.Pairs, pairs...)
		}
	}
	return result, nil
}

// latencyPair measures lat(s, d) for one operand pair, possibly producing
// multiple measurements (e.g. the separate-chain-instruction and
// same-register scenarios of Section 5.2.1).
func (c *Characterizer) latencyPair(in *isa.Instr, s, d int) ([]OperandPairLatency, error) {
	srcOp := in.Operands[s]
	dstOp := in.Operands[d]
	mk := func(cycles float64, upper bool, sameReg bool, notes string) OperandPairLatency {
		return OperandPairLatency{
			Source: s, Dest: d,
			SourceName: srcOp.Name, DestName: dstOp.Name,
			Cycles: cycles, UpperBound: upper, SameRegister: sameReg, Notes: notes,
		}
	}

	switch {
	case s == d:
		// A read-modify-write operand: the instruction chains with itself.
		cycles, err := c.selfChainLatency(in, s)
		if err != nil {
			return nil, err
		}
		return []OperandPairLatency{mk(cycles, false, false, "self chain")}, nil

	case srcOp.Kind == isa.OpReg && dstOp.Kind == isa.OpReg:
		return c.regRegLatency(in, s, d)

	case srcOp.Kind == isa.OpMem && dstOp.Kind == isa.OpReg:
		return c.memRegLatency(in, s, d)

	case srcOp.Kind == isa.OpReg && dstOp.Kind == isa.OpMem:
		cycles, err := c.regMemRoundTrip(in, s, d)
		if err != nil {
			return nil, err
		}
		return []OperandPairLatency{mk(cycles, false, false,
			"store-load round trip (not a pure latency, Section 5.2.4)")}, nil

	case srcOp.Kind == isa.OpFlags && dstOp.Kind == isa.OpReg:
		return c.flagsRegLatency(in, s, d)

	case srcOp.Kind == isa.OpReg && dstOp.Kind == isa.OpFlags:
		return c.regFlagsLatency(in, s, d)

	case srcOp.Kind == isa.OpFlags && dstOp.Kind == isa.OpFlags:
		cycles, err := c.selfChainLatency(in, s)
		if err != nil {
			return nil, err
		}
		return []OperandPairLatency{mk(cycles, false, false, "flag-to-flag self chain")}, nil

	case srcOp.Kind == isa.OpMem && dstOp.Kind == isa.OpFlags:
		return nil, fmt.Errorf("memory-to-flags chains are not supported")

	case srcOp.Kind == isa.OpFlags && dstOp.Kind == isa.OpMem:
		return nil, fmt.Errorf("flags-to-memory chains are not supported")
	}
	return nil, fmt.Errorf("unsupported operand pair %s -> %s", srcOp.Kind, dstOp.Kind)
}

// measureChainIteration measures the cycles of one iteration of a chain
// benchmark (the harness's copy differencing turns the repeated copies into a
// long chain).
func (c *Characterizer) measureChainIteration(iteration asmgen.Sequence) (float64, error) {
	res, err := c.gen.h.Measure(iteration)
	if err != nil {
		return 0, err
	}
	return res.Cycles, nil
}

// selfChainLatency measures the latency of the operand chained to itself: the
// instruction is repeated with fixed registers, and dependency-breaking
// instructions are added for all other read-modify-write operands.
func (c *Characterizer) selfChainLatency(in *isa.Instr, opIdx int) (float64, error) {
	alloc := c.gen.newAlloc()
	inst, err := c.gen.instantiate(in, nil, &alloc)
	if err != nil {
		return 0, err
	}
	iteration := asmgen.Sequence{inst}
	breakers, err := c.breakOtherDeps(in, inst, &alloc, opIdx, opIdx)
	if err != nil {
		return 0, err
	}
	iteration = append(iteration, breakers...)
	return c.measureChainIteration(iteration)
}

// regRegLatency handles the register-to-register cases of Section 5.2.1.
func (c *Characterizer) regRegLatency(in *isa.Instr, s, d int) ([]OperandPairLatency, error) {
	srcOp := in.Operands[s]
	dstOp := in.Operands[d]
	var out []OperandPairLatency

	srcGPR := srcOp.Class.IsGPR()
	dstGPR := dstOp.Class.IsGPR()
	srcVec := srcOp.Class.IsVector() || srcOp.Class == isa.ClassMMX
	dstVec := dstOp.Class.IsVector() || dstOp.Class == isa.ClassMMX

	switch {
	case srcGPR && dstGPR:
		cycles, err := c.chainedLatency(in, s, d, chainMOVSX)
		if err != nil {
			return nil, err
		}
		out = append(out, OperandPairLatency{
			Source: s, Dest: d, SourceName: srcOp.Name, DestName: dstOp.Name,
			Cycles: cycles, Notes: "MOVSX chain",
		})
	case srcVec && dstVec && srcOp.Class == dstOp.Class:
		// Both an integer and a floating-point shuffle chain are measured to
		// expose bypass delays; the smaller value is the latency, the larger
		// one includes the bypass delay.
		best := -1.0
		note := ""
		for _, kind := range []chainKind{chainIntShuffle, chainFPShuffle} {
			cycles, err := c.chainedLatency(in, s, d, kind)
			if err != nil {
				continue
			}
			if best < 0 || cycles < best {
				best = cycles
				note = kind.describe()
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("no shuffle chain instruction available for %s", srcOp.Class)
		}
		out = append(out, OperandPairLatency{
			Source: s, Dest: d, SourceName: srcOp.Name, DestName: dstOp.Name,
			Cycles: best, Notes: note,
		})
	default:
		// Registers of different types: no chain instruction with a known
		// latency exists; measure the composition with the available
		// transfer instructions and report an upper bound (Section 5.2.1).
		cycles, err := c.crossTypeLatency(in, s, d)
		if err != nil {
			return nil, err
		}
		out = append(out, OperandPairLatency{
			Source: s, Dest: d, SourceName: srcOp.Name, DestName: dstOp.Name,
			Cycles: cycles, UpperBound: true, Notes: "cross-register-type chain (upper bound)",
		})
	}

	// Additional same-register scenario when both operands are explicit and
	// of the same class (Section 5.2.1: some instructions behave differently
	// when the same register is used, e.g. SHLD on Skylake or zero idioms).
	if !srcOp.Implicit && !dstOp.Implicit && srcOp.Class == dstOp.Class && s != d {
		cycles, err := c.sameRegisterLatency(in, s, d)
		if err == nil {
			out = append(out, OperandPairLatency{
				Source: s, Dest: d, SourceName: srcOp.Name, DestName: dstOp.Name,
				Cycles: cycles, SameRegister: true, Notes: "same register for both operands",
			})
		}
	}
	return out, nil
}

// chainedLatency builds the chain [I ; C ; dependency breakers] where C reads
// the destination operand d and writes the source operand s, measures one
// iteration, and subtracts the chain instruction's own latency.
func (c *Characterizer) chainedLatency(in *isa.Instr, s, d int, kind chainKind) (float64, error) {
	alloc := c.gen.newAlloc()
	fixed := make(map[int]asmgen.Operand)

	srcClass := in.Operands[s].Class
	dstClass := in.Operands[d].Class
	srcReg, err := c.operandRegister(in, s, &alloc)
	if err != nil {
		return 0, err
	}
	dstReg, err := c.operandRegister(in, d, &alloc)
	if err != nil {
		return 0, err
	}
	if ei := explicitIndex(in, s); ei >= 0 {
		fixed[ei] = asmgen.RegOperand(srcReg)
	}
	if ei := explicitIndex(in, d); ei >= 0 {
		fixed[ei] = asmgen.RegOperand(dstReg)
	}
	inst, err := c.gen.instantiate(in, fixed, &alloc)
	if err != nil {
		return 0, err
	}
	chainInst, chainLat, err := c.chainInstruction(kind, dstReg, srcReg, dstClass, srcClass)
	if err != nil {
		return 0, err
	}
	iteration := asmgen.Sequence{inst, chainInst}
	breakers, err := c.breakOtherDeps(in, inst, &alloc, s, d)
	if err != nil {
		return 0, err
	}
	iteration = append(iteration, breakers...)
	cycles, err := c.measureChainIteration(iteration)
	if err != nil {
		return 0, err
	}
	lat := cycles - chainLat
	if lat < 0 {
		lat = 0
	}
	return lat, nil
}

// sameRegisterLatency measures the chain where the same register is used for
// the source and destination operands.
func (c *Characterizer) sameRegisterLatency(in *isa.Instr, s, d int) (float64, error) {
	alloc := c.gen.newAlloc()
	reg, err := alloc.Fresh(in.Operands[s].Class)
	if err != nil {
		return 0, err
	}
	fixed := make(map[int]asmgen.Operand)
	if ei := explicitIndex(in, s); ei >= 0 {
		fixed[ei] = asmgen.RegOperand(reg)
	}
	if ei := explicitIndex(in, d); ei >= 0 {
		fixed[ei] = asmgen.RegOperand(reg)
	}
	inst, err := c.gen.instantiate(in, fixed, &alloc)
	if err != nil {
		return 0, err
	}
	iteration := asmgen.Sequence{inst}
	breakers, err := c.breakOtherDeps(in, inst, &alloc, s, d)
	if err != nil {
		return 0, err
	}
	iteration = append(iteration, breakers...)
	return c.measureChainIteration(iteration)
}

// crossTypeLatency measures the instruction composed with a register-transfer
// instruction between the two register types and returns an upper bound on
// the latency (the measured composition time minus one cycle).
func (c *Characterizer) crossTypeLatency(in *isa.Instr, s, d int) (float64, error) {
	alloc := c.gen.newAlloc()
	srcReg, err := c.operandRegister(in, s, &alloc)
	if err != nil {
		return 0, err
	}
	dstReg, err := c.operandRegister(in, d, &alloc)
	if err != nil {
		return 0, err
	}
	fixed := make(map[int]asmgen.Operand)
	if ei := explicitIndex(in, s); ei >= 0 {
		fixed[ei] = asmgen.RegOperand(srcReg)
	}
	if ei := explicitIndex(in, d); ei >= 0 {
		fixed[ei] = asmgen.RegOperand(dstReg)
	}
	inst, err := c.gen.instantiate(in, fixed, &alloc)
	if err != nil {
		return 0, err
	}
	transfers, err := c.transferChain(dstReg, srcReg)
	if err != nil {
		return 0, err
	}
	iteration := append(asmgen.Sequence{inst}, transfers...)
	breakers, err := c.breakOtherDeps(in, inst, &alloc, s, d)
	if err != nil {
		return 0, err
	}
	iteration = append(iteration, breakers...)
	cycles, err := c.measureChainIteration(iteration)
	if err != nil {
		return 0, err
	}
	bound := cycles - 1
	if bound < 0 {
		bound = 0
	}
	return bound, nil
}

// memRegLatency handles memory-to-register latencies (Section 5.2.2): the
// double-XOR trick creates a dependency from the destination register back to
// the address register of the memory operand.
func (c *Characterizer) memRegLatency(in *isa.Instr, s, d int) ([]OperandPairLatency, error) {
	srcOp := in.Operands[s]
	dstOp := in.Operands[d]
	alloc := c.gen.newAlloc()

	base, err := alloc.Fresh(isa.ClassGPR64)
	if err != nil {
		return nil, err
	}
	addr := c.gen.arena.Alloc(srcOp.Width / 8)
	dstReg, err := c.operandRegister(in, d, &alloc)
	if err != nil {
		return nil, err
	}
	fixed := make(map[int]asmgen.Operand)
	if ei := explicitIndex(in, s); ei >= 0 {
		fixed[ei] = asmgen.MemOperand(base, addr)
	}
	if ei := explicitIndex(in, d); ei >= 0 {
		fixed[ei] = asmgen.RegOperand(dstReg)
	}
	inst, err := c.gen.instantiate(in, fixed, &alloc)
	if err != nil {
		return nil, err
	}

	iteration := asmgen.Sequence{inst}
	chainLat := 0.0
	upper := false
	notes := "double-XOR address chain"
	if dstOp.Class.IsGPR() {
		xors, err := c.doubleXOR(base, dstReg.InFamily(isa.ClassGPR64))
		if err != nil {
			return nil, err
		}
		iteration = append(iteration, xors...)
		chainLat = 2
	} else {
		// Destination is not a general-purpose register: transfer it to a
		// GPR first, then apply the double XOR; the result is an upper
		// bound.
		tmp, err := alloc.Fresh(isa.ClassGPR64)
		if err != nil {
			return nil, err
		}
		transfers, err := c.transferChain(dstReg, tmp)
		if err != nil {
			return nil, err
		}
		xors, err := c.doubleXOR(base, tmp)
		if err != nil {
			return nil, err
		}
		iteration = append(iteration, transfers...)
		iteration = append(iteration, xors...)
		chainLat = 3
		upper = true
		notes = "transfer + double-XOR address chain (upper bound)"
	}
	flagBreak, err := c.gen.depBreakFlags(&alloc)
	if err != nil {
		return nil, err
	}
	iteration = append(iteration, flagBreak)
	breakers, err := c.breakOtherDeps(in, inst, &alloc, s, d)
	if err != nil {
		return nil, err
	}
	iteration = append(iteration, breakers...)

	cycles, err := c.measureChainIteration(iteration)
	if err != nil {
		return nil, err
	}
	lat := cycles - chainLat
	if lat < 0 {
		lat = 0
	}
	return []OperandPairLatency{{
		Source: s, Dest: d, SourceName: srcOp.Name, DestName: dstOp.Name,
		Cycles: lat, UpperBound: upper, Notes: notes,
	}}, nil
}

// regMemRoundTrip measures the execution time of the instruction (which
// stores to memory) chained with a load from the same address (Section
// 5.2.4). The value is not a pure store latency but is reported for
// reference.
func (c *Characterizer) regMemRoundTrip(in *isa.Instr, s, d int) (float64, error) {
	srcOp := in.Operands[s]
	dstOp := in.Operands[d]
	alloc := c.gen.newAlloc()

	base, err := alloc.Fresh(isa.ClassGPR64)
	if err != nil {
		return 0, err
	}
	addr := c.gen.arena.Alloc(dstOp.Width / 8)
	srcReg, err := c.operandRegister(in, s, &alloc)
	if err != nil {
		return 0, err
	}
	fixed := make(map[int]asmgen.Operand)
	if ei := explicitIndex(in, d); ei >= 0 {
		fixed[ei] = asmgen.MemOperand(base, addr)
	}
	if ei := explicitIndex(in, s); ei >= 0 {
		fixed[ei] = asmgen.RegOperand(srcReg)
	}
	inst, err := c.gen.instantiate(in, fixed, &alloc)
	if err != nil {
		return 0, err
	}
	// Load the stored value back into the source register (or into a GPR
	// that is then transferred).
	iteration := asmgen.Sequence{inst}
	if srcOp.Class.IsGPR() {
		load, err := c.gen.lookupVariant("MOV_R64_M64")
		if err != nil {
			return 0, err
		}
		iteration = append(iteration, asmgen.MustInst(load,
			asmgen.RegOperand(srcReg.InFamily(isa.ClassGPR64)), asmgen.MemOperand(base, addr)))
	} else {
		// Load back with a move of the source operand's own register class;
		// a class mismatch here would panic MustInst below (a YMM-source
		// store used to pick the XMM load and crash every full-ISA run on
		// AVX-capable generations). An unhandled class is an error — which
		// the characterizer reports as a skipped variant — never a panic.
		var loadName string
		switch srcOp.Class {
		case isa.ClassXMM:
			loadName = "MOVDQA_XMM_M128"
		case isa.ClassMMX:
			loadName = "MOVQ_MM_M64"
		case isa.ClassYMM:
			loadName = "VMOVDQA_YMM_M256"
		default:
			return 0, fmt.Errorf("core: no load-back variant for %s-source stores", srcOp.Class)
		}
		load, err := c.gen.lookupVariant(loadName)
		if err != nil {
			return 0, err
		}
		iteration = append(iteration, asmgen.MustInst(load,
			asmgen.RegOperand(srcReg), asmgen.MemOperand(base, addr)))
	}
	breakers, err := c.breakOtherDeps(in, inst, &alloc, s, d)
	if err != nil {
		return 0, err
	}
	iteration = append(iteration, breakers...)
	return c.measureChainIteration(iteration)
}

// flagsRegLatency handles flags-to-register latencies (Section 5.2.3): the
// TEST instruction creates the dependency from the destination register back
// to the flags.
func (c *Characterizer) flagsRegLatency(in *isa.Instr, s, d int) ([]OperandPairLatency, error) {
	dstOp := in.Operands[d]
	if !dstOp.Class.IsGPR() {
		return nil, fmt.Errorf("flags-to-%s chains are not supported", dstOp.Class)
	}
	alloc := c.gen.newAlloc()
	dstReg, err := c.operandRegister(in, d, &alloc)
	if err != nil {
		return nil, err
	}
	fixed := make(map[int]asmgen.Operand)
	if ei := explicitIndex(in, d); ei >= 0 {
		fixed[ei] = asmgen.RegOperand(dstReg)
	}
	inst, err := c.gen.instantiate(in, fixed, &alloc)
	if err != nil {
		return nil, err
	}
	test, err := c.gen.lookupVariant("TEST_R64_R64")
	if err != nil {
		return nil, err
	}
	d64 := dstReg.InFamily(isa.ClassGPR64)
	iteration := asmgen.Sequence{inst, asmgen.MustInst(test, asmgen.RegOperand(d64), asmgen.RegOperand(d64))}
	breakers, err := c.breakOtherDeps(in, inst, &alloc, s, d)
	if err != nil {
		return nil, err
	}
	iteration = append(iteration, breakers...)
	cycles, err := c.measureChainIteration(iteration)
	if err != nil {
		return nil, err
	}
	lat := cycles - testLatency
	if lat < 0 {
		lat = 0
	}
	return []OperandPairLatency{{
		Source: s, Dest: d, SourceName: in.Operands[s].Name, DestName: dstOp.Name,
		Cycles: lat, Notes: "TEST chain",
	}}, nil
}

// regFlagsLatency handles register-to-flags latencies: a SETcc instruction
// whose condition reads only flags written by the instruction closes the
// chain back to the source register.
func (c *Characterizer) regFlagsLatency(in *isa.Instr, s, d int) ([]OperandPairLatency, error) {
	srcOp := in.Operands[s]
	dstOp := in.Operands[d]
	if !srcOp.Class.IsGPR() {
		// e.g. PTEST: the source is a vector register; composing SETcc with
		// a GPR-to-vector transfer only yields an upper bound.
		return nil, fmt.Errorf("register-to-flags chains from %s registers are not supported", srcOp.Class)
	}
	setcc := c.pickFlagReader(dstOp.WriteFlags)
	if setcc == nil {
		return nil, fmt.Errorf("no SETcc variant reads a subset of the written flags %s", dstOp.WriteFlags)
	}
	alloc := c.gen.newAlloc()
	srcReg, err := c.operandRegister(in, s, &alloc)
	if err != nil {
		return nil, err
	}
	fixed := make(map[int]asmgen.Operand)
	if ei := explicitIndex(in, s); ei >= 0 {
		fixed[ei] = asmgen.RegOperand(srcReg)
	}
	inst, err := c.gen.instantiate(in, fixed, &alloc)
	if err != nil {
		return nil, err
	}
	src8 := srcReg.InFamily(isa.ClassGPR8)
	if src8 == isa.RegNone {
		return nil, fmt.Errorf("no 8-bit alias for register %s", srcReg)
	}
	iteration := asmgen.Sequence{inst, asmgen.MustInst(setcc, asmgen.RegOperand(src8))}
	breakers, err := c.breakOtherDeps(in, inst, &alloc, s, d)
	if err != nil {
		return nil, err
	}
	iteration = append(iteration, breakers...)
	cycles, err := c.measureChainIteration(iteration)
	if err != nil {
		return nil, err
	}
	setccLat, err := c.setccLatency(setcc)
	if err != nil {
		return nil, err
	}
	lat := cycles - setccLat
	if lat < 0 {
		lat = 0
	}
	return []OperandPairLatency{{
		Source: s, Dest: d, SourceName: srcOp.Name, DestName: dstOp.Name,
		Cycles: lat, Notes: "SETcc chain",
	}}, nil
}

// dividerLatency handles instructions that use the divider units (Section
// 5.2.5): the automatic chain construction cannot be used because the output
// values change the latency class, so the register that is both source and
// destination is re-pinned to the test value with an AND/OR pair each
// iteration, and the measurement is repeated for fast and slow operand
// values.
func (c *Characterizer) dividerLatency(in *isa.Instr) (LatencyResult, error) {
	var result LatencyResult
	// Find the register operand that is both read and written (RAX for the
	// general-purpose divisions, the first operand for the vector ones).
	pinIdx := -1
	for i, op := range in.Operands {
		if op.Kind == isa.OpReg && op.Read && op.Write {
			pinIdx = i
			break
		}
	}
	if pinIdx < 0 {
		return result, nil
	}
	alloc := c.gen.newAlloc()
	pinReg, err := c.operandRegister(in, pinIdx, &alloc)
	if err != nil {
		return result, err
	}
	fixed := make(map[int]asmgen.Operand)
	if ei := explicitIndex(in, pinIdx); ei >= 0 {
		fixed[ei] = asmgen.RegOperand(pinReg)
	}
	inst, err := c.gen.instantiate(in, fixed, &alloc)
	if err != nil {
		return result, err
	}
	pin, err := c.valuePinSequence(pinReg, &alloc)
	if err != nil {
		return result, err
	}
	iteration := append(asmgen.Sequence{inst}, pin...)
	breakers, err := c.breakOtherDeps(in, inst, &alloc, pinIdx, pinIdx)
	if err != nil {
		return result, err
	}
	iteration = append(iteration, breakers...)

	slow, fast, err := c.measureWithDividerValues(iteration)
	if err != nil {
		return result, err
	}
	pinLat := float64(len(pin)) // one cycle per pinning instruction
	entry := OperandPairLatency{
		Source: pinIdx, Dest: pinIdx,
		SourceName: in.Operands[pinIdx].Name, DestName: in.Operands[pinIdx].Name,
		Cycles:          maxf(slow-pinLat, 0),
		FastValueCycles: maxf(fast-pinLat, 0),
		Notes:           "AND/OR value-pinned chain (slow and fast operand values)",
	}
	result.Pairs = append(result.Pairs, entry)
	return result, nil
}

// measureWithDividerValues measures one chain iteration under the slow- and
// fast-operand-value regimes.
func (c *Characterizer) measureWithDividerValues(iteration asmgen.Sequence) (slow, fast float64, err error) {
	setter, ok := c.gen.h.Runner().(measure.DividerValueSetter)
	if !ok {
		cycles, err := c.measureChainIteration(iteration)
		return cycles, cycles, err
	}
	setter.SetDividerValues(pipesim.SlowDividerValues)
	slow, err = c.measureChainIteration(iteration)
	if err != nil {
		return 0, 0, err
	}
	setter.SetDividerValues(pipesim.FastDividerValues)
	fast, err = c.measureChainIteration(iteration)
	setter.SetDividerValues(pipesim.SlowDividerValues)
	if err != nil {
		return 0, 0, err
	}
	return slow, fast, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
