package uarch

// overridesFor returns the named per-variant special cases for a generation.
// These encode behaviours from the paper's case studies that the generic
// rules do not produce on their own; most case-study behaviours (AES µop
// split, ADC on Haswell, PBLENDVB on Nehalem, MOVDQ2Q, VHADDPD, BSWAP) fall
// out of the generation profiles in the rule-based assignment and need no
// entry here.
func overridesFor(a *Arch) map[string]*InstrPerf {
	ov := make(map[string]*InstrPerf)

	if a.gen >= Skylake {
		// SHLD/SHRD reg,reg,imm (Section 7.3.2): one µop, 3-cycle latency
		// for distinct registers, but only 1 cycle when the same register is
		// used for both operands. Operand layout: op1 (rw), op2 (r), imm,
		// FLAGS (rw).
		for _, m := range []string{"SHLD", "SHRD"} {
			for _, w := range []string{"R16", "R32", "R64"} {
				name := m + "_" + w + "_" + w + "_I8"
				full := &InstrPerf{Uops: []Uop{
					uop(NewPortSet(1), 3, refs(Op(0), Op(1), Op(3)), refs(Op(0), Op(3))),
				}}
				full.SameRegOverride = &InstrPerf{Uops: []Uop{
					uop(NewPortSet(1), 1, refs(Op(0), Op(1), Op(3)), refs(Op(0), Op(3))),
				}}
				ov[name] = full
			}
		}

		// MOVQ2DQ (Section 7.3.3): on Skylake the first µop uses port 0 and
		// the second µop can use ports 0, 1 and 5 (not just 1 and 5, as an
		// isolation-based measurement suggests). Operand layout: op1 XMM
		// (w), op2 MM (r).
		ov["MOVQ2DQ_XMM_MM"] = &InstrPerf{Uops: []Uop{
			uop(NewPortSet(0), 1, refs(Op(1)), refs(Tmp(0))),
			uop(NewPortSet(0, 1, 5), 1, refs(Tmp(0)), refs(Op(0))),
		}}
	}

	return ov
}
