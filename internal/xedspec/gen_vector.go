package xedspec

import "uopsinfo/internal/isa"

// genVector emits the MMX, SSE*, AES, CLMUL, AVX, AVX2, FMA and F16C parts of
// the instruction set.
func genVector(b *builder) {
	genMMX(b)
	genSSEFP(b)
	genSSEInt(b)
	genSSE3Plus(b)
	genAES(b)
	genAVX(b)
	genFMA(b)
	genF16C(b)
}

// Helper emitters ------------------------------------------------------------

// sseBinary emits a two-operand SSE-style instruction (op1 is read and
// written) in register and memory forms.
func sseBinary(b *builder, mnemonic, ext, domain string, at []string, memWidth int, extraImm bool) {
	ops := []isa.Operand{reg("XMM", true, true), reg("XMM", true, false)}
	memOps := []isa.Operand{reg("XMM", true, true), mem(memWidth, true, false)}
	if extraImm {
		ops = append(ops, imm(8))
		memOps = append(memOps, imm(8))
	}
	b.instr(mnemonic, ext, domain, at, ops...)
	b.instr(mnemonic, ext, domain, nil, memOps...)
}

// sseUnary emits a two-operand SSE-style instruction where op1 is write-only
// (shuffles, conversions, square roots, ...).
func sseUnary(b *builder, mnemonic, ext, domain string, at []string, memWidth int, extraImm bool) {
	ops := []isa.Operand{reg("XMM", false, true), reg("XMM", true, false)}
	memOps := []isa.Operand{reg("XMM", false, true), mem(memWidth, true, false)}
	if extraImm {
		ops = append(ops, imm(8))
		memOps = append(memOps, imm(8))
	}
	b.instr(mnemonic, ext, domain, at, ops...)
	b.instr(mnemonic, ext, domain, nil, memOps...)
}

// avxBinary emits a three-operand AVX-style instruction (op1 write-only, op2
// and op3 read) in XMM and, when wantYMM is set, YMM forms, each with a
// memory variant for the last operand.
func avxBinary(b *builder, mnemonic, ext, domain string, at []string, wantYMM bool, extraImm bool) {
	emit := func(cls string, memWidth int) {
		ops := []isa.Operand{reg(cls, false, true), reg(cls, true, false), reg(cls, true, false)}
		memOps := []isa.Operand{reg(cls, false, true), reg(cls, true, false), mem(memWidth, true, false)}
		if extraImm {
			ops = append(ops, imm(8))
			memOps = append(memOps, imm(8))
		}
		b.instr(mnemonic, ext, domain, at, ops...)
		b.instr(mnemonic, ext, domain, nil, memOps...)
	}
	emit("XMM", 128)
	if wantYMM {
		emit("YMM", 256)
	}
}

// avxUnary emits a two-operand AVX-style instruction (op1 write-only, op2
// read) in XMM and optionally YMM forms, each with a memory variant.
func avxUnary(b *builder, mnemonic, ext, domain string, at []string, wantYMM bool, extraImm bool) {
	emit := func(cls string, memWidth int) {
		ops := []isa.Operand{reg(cls, false, true), reg(cls, true, false)}
		memOps := []isa.Operand{reg(cls, false, true), mem(memWidth, true, false)}
		if extraImm {
			ops = append(ops, imm(8))
			memOps = append(memOps, imm(8))
		}
		b.instr(mnemonic, ext, domain, at, ops...)
		b.instr(mnemonic, ext, domain, nil, memOps...)
	}
	emit("XMM", 128)
	if wantYMM {
		emit("YMM", 256)
	}
}

// MMX -------------------------------------------------------------------------

func genMMX(b *builder) {
	// Moves between MMX, general-purpose registers and memory.
	b.instr("MOVD", "MMX", "VECINT", nil, reg("MMX", false, true), reg("GPR32", true, false))
	b.instr("MOVD", "MMX", "VECINT", nil, reg("GPR32", false, true), reg("MMX", true, false))
	b.instr("MOVQ", "MMX", "VECINT", nil, reg("MMX", false, true), reg("GPR64", true, false))
	b.instr("MOVQ", "MMX", "VECINT", nil, reg("GPR64", false, true), reg("MMX", true, false))
	b.instr("MOVQ", "MMX", "VECINT", nil, reg("MMX", false, true), reg("MMX", true, false))
	b.instr("MOVQ", "MMX", "VECINT", nil, reg("MMX", false, true), mem(64, true, false))
	b.instr("MOVQ", "MMX", "VECINT", nil, mem(64, false, true), reg("MMX", true, false))
	// Transfers between MMX and XMM registers (Sections 7.3.3 and 7.3.4).
	b.instr("MOVQ2DQ", "SSE2", "VECINT", nil, reg("XMM", false, true), reg("MMX", true, false))
	b.instr("MOVDQ2Q", "SSE2", "VECINT", nil, reg("MMX", false, true), reg("XMM", true, false))

	mmxBinary := func(mnemonic string, at []string) {
		b.instr(mnemonic, "MMX", "VECINT", at, reg("MMX", true, true), reg("MMX", true, false))
		b.instr(mnemonic, "MMX", "VECINT", nil, reg("MMX", true, true), mem(64, true, false))
	}
	for _, m := range []string{"PADDB", "PADDW", "PADDD", "PSUBB", "PSUBW", "PSUBD",
		"PADDSB", "PADDSW", "PSUBSB", "PSUBSW", "PAND", "PANDN", "POR",
		"PMULLW", "PMULHW", "PMADDWD",
		"PUNPCKLBW", "PUNPCKLWD", "PUNPCKLDQ", "PUNPCKHBW", "PUNPCKHWD", "PUNPCKHDQ",
		"PACKSSWB", "PACKSSDW", "PACKUSWB",
		"PCMPEQB", "PCMPEQW", "PCMPEQD"} {
		mmxBinary(m, nil)
	}
	for _, m := range []string{"PXOR", "PCMPGTB", "PCMPGTW", "PCMPGTD"} {
		mmxBinary(m, attrs(attrZeroIdiom))
	}
	for _, m := range []string{"PSLLW", "PSLLD", "PSLLQ", "PSRLW", "PSRLD", "PSRLQ", "PSRAW", "PSRAD"} {
		b.instr(m, "MMX", "VECINT", nil, reg("MMX", true, true), reg("MMX", true, false))
		b.instr(m, "MMX", "VECINT", nil, reg("MMX", true, true), imm(8))
	}
	b.instr("EMMS", "MMX", "VECINT", attrs(attrSystem))
}

// SSE / SSE2 floating point ----------------------------------------------------

func genSSEFP(b *builder) {
	// Moves.
	for _, m := range []string{"MOVAPS", "MOVUPS"} {
		b.instr(m, "SSE", "FP", attrs(attrMoveElim), reg("XMM", false, true), reg("XMM", true, false))
		b.instr(m, "SSE", "FP", nil, reg("XMM", false, true), mem(128, true, false))
		b.instr(m, "SSE", "FP", nil, mem(128, false, true), reg("XMM", true, false))
	}
	for _, m := range []string{"MOVAPD", "MOVUPD"} {
		b.instr(m, "SSE2", "FP", attrs(attrMoveElim), reg("XMM", false, true), reg("XMM", true, false))
		b.instr(m, "SSE2", "FP", nil, reg("XMM", false, true), mem(128, true, false))
		b.instr(m, "SSE2", "FP", nil, mem(128, false, true), reg("XMM", true, false))
	}
	b.instr("MOVSS", "SSE", "FP", nil, reg("XMM", true, true), reg("XMM", true, false))
	b.instr("MOVSS", "SSE", "FP", nil, reg("XMM", false, true), mem(32, true, false))
	b.instr("MOVSS", "SSE", "FP", nil, mem(32, false, true), reg("XMM", true, false))
	b.instr("MOVSD", "SSE2", "FP", nil, reg("XMM", true, true), reg("XMM", true, false))
	b.instr("MOVSD", "SSE2", "FP", nil, reg("XMM", false, true), mem(64, true, false))
	b.instr("MOVSD", "SSE2", "FP", nil, mem(64, false, true), reg("XMM", true, false))
	b.instr("MOVHLPS", "SSE", "FP", nil, reg("XMM", true, true), reg("XMM", true, false))
	b.instr("MOVLHPS", "SSE", "FP", nil, reg("XMM", true, true), reg("XMM", true, false))
	b.instr("MOVMSKPS", "SSE", "FP", nil, reg("GPR32", false, true), reg("XMM", true, false))
	b.instr("MOVMSKPD", "SSE2", "FP", nil, reg("GPR32", false, true), reg("XMM", true, false))
	b.instr("MOVNTPS", "SSE", "FP", nil, mem(128, false, true), reg("XMM", true, false))
	b.instr("MOVNTPD", "SSE2", "FP", nil, mem(128, false, true), reg("XMM", true, false))

	// Packed and scalar arithmetic.
	type fpOp struct {
		base    string
		divider bool
	}
	fpOps := []fpOp{
		{"ADD", false}, {"SUB", false}, {"MUL", false},
		{"DIV", true}, {"MIN", false}, {"MAX", false},
	}
	suffixInfo := []struct {
		suffix   string
		ext      string
		memWidth int
	}{
		{"PS", "SSE", 128}, {"SS", "SSE", 32},
		{"PD", "SSE2", 128}, {"SD", "SSE2", 64},
	}
	for _, op := range fpOps {
		for _, s := range suffixInfo {
			var at []string
			if op.divider {
				at = attrs(attrDivider)
			}
			sseBinary(b, op.base+s.suffix, s.ext, "FP", at, s.memWidth, false)
		}
	}
	for _, s := range suffixInfo {
		sseUnary(b, "SQRT"+s.suffix, s.ext, "FP", attrs(attrDivider), s.memWidth, false)
	}
	sseUnary(b, "RCPPS", "SSE", "FP", nil, 128, false)
	sseUnary(b, "RCPSS", "SSE", "FP", nil, 32, false)
	sseUnary(b, "RSQRTPS", "SSE", "FP", nil, 128, false)
	sseUnary(b, "RSQRTSS", "SSE", "FP", nil, 32, false)

	// Logic (XORPS/XORPD with identical operands are zero idioms).
	for _, s := range []struct{ suffix, ext string }{{"PS", "SSE"}, {"PD", "SSE2"}} {
		sseBinary(b, "AND"+s.suffix, s.ext, "FP", nil, 128, false)
		sseBinary(b, "ANDN"+s.suffix, s.ext, "FP", nil, 128, false)
		sseBinary(b, "OR"+s.suffix, s.ext, "FP", nil, 128, false)
		sseBinary(b, "XOR"+s.suffix, s.ext, "FP", attrs(attrZeroIdiom), 128, false)
	}

	// Compares.
	for _, s := range suffixInfo {
		sseBinary(b, "CMP"+s.suffix, s.ext, "FP", nil, s.memWidth, true)
	}
	for _, m := range []string{"COMISS", "UCOMISS"} {
		b.instr(m, "SSE", "FP", nil, reg("XMM", true, false), reg("XMM", true, false), flags("", flagsNoAF))
		b.instr(m, "SSE", "FP", nil, reg("XMM", true, false), mem(32, true, false), flags("", flagsNoAF))
	}
	for _, m := range []string{"COMISD", "UCOMISD"} {
		b.instr(m, "SSE2", "FP", nil, reg("XMM", true, false), reg("XMM", true, false), flags("", flagsNoAF))
		b.instr(m, "SSE2", "FP", nil, reg("XMM", true, false), mem(64, true, false), flags("", flagsNoAF))
	}

	// Shuffles and unpacks.
	sseBinary(b, "SHUFPS", "SSE", "FP", nil, 128, true)
	sseBinary(b, "SHUFPD", "SSE2", "FP", nil, 128, true)
	for _, m := range []string{"UNPCKLPS", "UNPCKHPS"} {
		sseBinary(b, m, "SSE", "FP", nil, 128, false)
	}
	for _, m := range []string{"UNPCKLPD", "UNPCKHPD"} {
		sseBinary(b, m, "SSE2", "FP", nil, 128, false)
	}

	// Conversions between FP formats and between FP and integer.
	sseUnary(b, "CVTPS2PD", "SSE2", "FP", nil, 64, false)
	sseUnary(b, "CVTPD2PS", "SSE2", "FP", nil, 128, false)
	sseUnary(b, "CVTSS2SD", "SSE2", "FP", nil, 32, false)
	sseUnary(b, "CVTSD2SS", "SSE2", "FP", nil, 64, false)
	sseUnary(b, "CVTDQ2PS", "SSE2", "FP", nil, 128, false)
	sseUnary(b, "CVTPS2DQ", "SSE2", "FP", nil, 128, false)
	sseUnary(b, "CVTTPS2DQ", "SSE2", "FP", nil, 128, false)
	sseUnary(b, "CVTDQ2PD", "SSE2", "FP", nil, 64, false)
	sseUnary(b, "CVTPD2DQ", "SSE2", "FP", nil, 128, false)
	for _, w := range []int{32, 64} {
		cls := gprClass(w)
		b.instr("CVTSI2SS", "SSE", "FP", nil, reg("XMM", true, true), reg(cls, true, false))
		b.instr("CVTSI2SD", "SSE2", "FP", nil, reg("XMM", true, true), reg(cls, true, false))
		b.instr("CVTSS2SI", "SSE", "FP", nil, reg(cls, false, true), reg("XMM", true, false))
		b.instr("CVTSD2SI", "SSE2", "FP", nil, reg(cls, false, true), reg("XMM", true, false))
		b.instr("CVTTSS2SI", "SSE", "FP", nil, reg(cls, false, true), reg("XMM", true, false))
		b.instr("CVTTSD2SI", "SSE2", "FP", nil, reg(cls, false, true), reg("XMM", true, false))
	}
}

// SSE2 integer -----------------------------------------------------------------

func genSSEInt(b *builder) {
	// Moves.
	for _, m := range []string{"MOVDQA", "MOVDQU"} {
		b.instr(m, "SSE2", "VECINT", attrs(attrMoveElim), reg("XMM", false, true), reg("XMM", true, false))
		b.instr(m, "SSE2", "VECINT", nil, reg("XMM", false, true), mem(128, true, false))
		b.instr(m, "SSE2", "VECINT", nil, mem(128, false, true), reg("XMM", true, false))
	}
	b.instr("MOVD", "SSE2", "VECINT", nil, reg("XMM", false, true), reg("GPR32", true, false))
	b.instr("MOVD", "SSE2", "VECINT", nil, reg("GPR32", false, true), reg("XMM", true, false))
	b.instr("MOVQ", "SSE2", "VECINT", nil, reg("XMM", false, true), reg("GPR64", true, false))
	b.instr("MOVQ", "SSE2", "VECINT", nil, reg("GPR64", false, true), reg("XMM", true, false))
	b.instr("MOVQ", "SSE2", "VECINT", nil, reg("XMM", false, true), reg("XMM", true, false))
	b.instr("MOVQ", "SSE2", "VECINT", nil, reg("XMM", false, true), mem(64, true, false))
	b.instr("MOVQ", "SSE2", "VECINT", nil, mem(64, false, true), reg("XMM", true, false))
	b.instr("MOVNTDQ", "SSE2", "VECINT", nil, mem(128, false, true), reg("XMM", true, false))
	b.instr("PMOVMSKB", "SSE2", "VECINT", nil, reg("GPR32", false, true), reg("XMM", true, false))
	b.instr("MASKMOVDQU", "SSE2", "VECINT", nil, reg("XMM", true, false), reg("XMM", true, false),
		impReg("RDI", "GPR64", true, false))

	// Packed integer arithmetic and logic.
	plain := []string{
		"PADDB", "PADDW", "PADDD", "PADDQ", "PSUBB", "PSUBW", "PSUBD", "PSUBQ",
		"PADDSB", "PADDSW", "PADDUSB", "PADDUSW", "PSUBSB", "PSUBSW", "PSUBUSB", "PSUBUSW",
		"PAVGB", "PAVGW", "PMINUB", "PMAXUB", "PMINSW", "PMAXSW",
		"PMULLW", "PMULHW", "PMULHUW", "PMULUDQ", "PMADDWD", "PSADBW",
		"PAND", "PANDN", "POR",
		"PCMPEQB", "PCMPEQW", "PCMPEQD",
		"PUNPCKLBW", "PUNPCKLWD", "PUNPCKLDQ", "PUNPCKLQDQ",
		"PUNPCKHBW", "PUNPCKHWD", "PUNPCKHDQ", "PUNPCKHQDQ",
		"PACKSSWB", "PACKSSDW", "PACKUSWB",
	}
	for _, m := range plain {
		sseBinary(b, m, "SSE2", "VECINT", nil, 128, false)
	}
	// Zero idioms (Section 7.3.6: the PCMPGT family is dependency-breaking).
	for _, m := range []string{"PXOR", "PCMPGTB", "PCMPGTW", "PCMPGTD"} {
		sseBinary(b, m, "SSE2", "VECINT", attrs(attrZeroIdiom), 128, false)
	}
	// Shifts: by register (xmm), by immediate.
	for _, m := range []string{"PSLLW", "PSLLD", "PSLLQ", "PSRLW", "PSRLD", "PSRLQ", "PSRAW", "PSRAD"} {
		b.instr(m, "SSE2", "VECINT", nil, reg("XMM", true, true), reg("XMM", true, false))
		b.instr(m, "SSE2", "VECINT", nil, reg("XMM", true, true), mem(128, true, false))
		b.instr(m, "SSE2", "VECINT", nil, reg("XMM", true, true), imm(8))
	}
	b.instr("PSLLDQ", "SSE2", "VECINT", nil, reg("XMM", true, true), imm(8))
	b.instr("PSRLDQ", "SSE2", "VECINT", nil, reg("XMM", true, true), imm(8))
	// Shuffles.
	sseUnary(b, "PSHUFD", "SSE2", "VECINT", nil, 128, true)
	sseUnary(b, "PSHUFLW", "SSE2", "VECINT", nil, 128, true)
	sseUnary(b, "PSHUFHW", "SSE2", "VECINT", nil, 128, true)
	// Insert/extract.
	b.instr("PINSRW", "SSE2", "VECINT", nil, reg("XMM", true, true), reg("GPR32", true, false), imm(8))
	b.instr("PEXTRW", "SSE2", "VECINT", nil, reg("GPR32", false, true), reg("XMM", true, false), imm(8))
}

// SSE3 / SSSE3 / SSE4.1 / SSE4.2 -----------------------------------------------

func genSSE3Plus(b *builder) {
	// SSE3.
	for _, m := range []string{"ADDSUBPS", "HADDPS", "HSUBPS"} {
		sseBinary(b, m, "SSE3", "FP", nil, 128, false)
	}
	for _, m := range []string{"ADDSUBPD", "HADDPD", "HSUBPD"} {
		sseBinary(b, m, "SSE3", "FP", nil, 128, false)
	}
	sseUnary(b, "MOVSHDUP", "SSE3", "FP", nil, 128, false)
	sseUnary(b, "MOVSLDUP", "SSE3", "FP", nil, 128, false)
	sseUnary(b, "MOVDDUP", "SSE3", "FP", nil, 64, false)
	b.instr("LDDQU", "SSE3", "VECINT", nil, reg("XMM", false, true), mem(128, true, false))

	// SSSE3.
	for _, m := range []string{"PSHUFB", "PHADDW", "PHADDD", "PHADDSW", "PHSUBW", "PHSUBD", "PHSUBSW",
		"PMADDUBSW", "PMULHRSW", "PSIGNB", "PSIGNW", "PSIGND"} {
		sseBinary(b, m, "SSSE3", "VECINT", nil, 128, false)
	}
	sseBinary(b, "PALIGNR", "SSSE3", "VECINT", nil, 128, true)
	for _, m := range []string{"PABSB", "PABSW", "PABSD"} {
		sseUnary(b, m, "SSSE3", "VECINT", nil, 128, false)
	}

	// SSE4.1.
	for _, m := range []string{"PMULLD", "PMULDQ", "PMINSB", "PMAXSB", "PMINUW", "PMAXUW",
		"PMINSD", "PMAXSD", "PMINUD", "PMAXUD", "PCMPEQQ", "PACKUSDW"} {
		sseBinary(b, m, "SSE4.1", "VECINT", nil, 128, false)
	}
	sseBinary(b, "PBLENDW", "SSE4.1", "VECINT", nil, 128, true)
	sseBinary(b, "MPSADBW", "SSE4.1", "VECINT", nil, 128, true)
	sseBinary(b, "BLENDPS", "SSE4.1", "FP", nil, 128, true)
	sseBinary(b, "BLENDPD", "SSE4.1", "FP", nil, 128, true)
	sseBinary(b, "DPPS", "SSE4.1", "FP", nil, 128, true)
	sseBinary(b, "DPPD", "SSE4.1", "FP", nil, 128, true)
	// Variable blends with an implicit XMM0 operand (PBLENDVB is the
	// Section 5.1 motivating example on Nehalem).
	for _, m := range []string{"PBLENDVB", "BLENDVPS", "BLENDVPD"} {
		dom := "VECINT"
		if m != "PBLENDVB" {
			dom = "FP"
		}
		b.instr(m, "SSE4.1", dom, nil, reg("XMM", true, true), reg("XMM", true, false),
			impReg("XMM0", "XMM", true, false))
		b.instr(m, "SSE4.1", dom, nil, reg("XMM", true, true), mem(128, true, false),
			impReg("XMM0", "XMM", true, false))
	}
	for _, m := range []string{"ROUNDPS", "ROUNDPD", "ROUNDSS", "ROUNDSD"} {
		sseUnary(b, m, "SSE4.1", "FP", nil, 128, true)
	}
	for _, m := range []string{"PMOVSXBW", "PMOVSXBD", "PMOVSXBQ", "PMOVSXWD", "PMOVSXWQ", "PMOVSXDQ",
		"PMOVZXBW", "PMOVZXBD", "PMOVZXBQ", "PMOVZXWD", "PMOVZXWQ", "PMOVZXDQ"} {
		sseUnary(b, m, "SSE4.1", "VECINT", nil, 64, false)
	}
	b.instr("PTEST", "SSE4.1", "VECINT", nil, reg("XMM", true, false), reg("XMM", true, false), flags("", "CF+ZF"))
	b.instr("PTEST", "SSE4.1", "VECINT", nil, reg("XMM", true, false), mem(128, true, false), flags("", "CF+ZF"))
	b.instr("PHMINPOSUW", "SSE4.1", "VECINT", nil, reg("XMM", false, true), reg("XMM", true, false))
	b.instr("INSERTPS", "SSE4.1", "FP", nil, reg("XMM", true, true), reg("XMM", true, false), imm(8))
	b.instr("EXTRACTPS", "SSE4.1", "FP", nil, reg("GPR32", false, true), reg("XMM", true, false), imm(8))
	b.instr("PINSRB", "SSE4.1", "VECINT", nil, reg("XMM", true, true), reg("GPR32", true, false), imm(8))
	b.instr("PINSRD", "SSE4.1", "VECINT", nil, reg("XMM", true, true), reg("GPR32", true, false), imm(8))
	b.instr("PINSRQ", "SSE4.1", "VECINT", nil, reg("XMM", true, true), reg("GPR64", true, false), imm(8))
	b.instr("PEXTRB", "SSE4.1", "VECINT", nil, reg("GPR32", false, true), reg("XMM", true, false), imm(8))
	b.instr("PEXTRD", "SSE4.1", "VECINT", nil, reg("GPR32", false, true), reg("XMM", true, false), imm(8))
	b.instr("PEXTRQ", "SSE4.1", "VECINT", nil, reg("GPR64", false, true), reg("XMM", true, false), imm(8))
	b.instr("MOVNTDQA", "SSE4.1", "VECINT", nil, reg("XMM", false, true), mem(128, true, false))

	// SSE4.2.
	sseBinary(b, "PCMPGTQ", "SSE4.2", "VECINT", attrs(attrZeroIdiom), 128, false)
	for _, m := range []string{"PCMPESTRI", "PCMPISTRI"} {
		b.instr(m, "SSE4.2", "VECINT", nil, reg("XMM", true, false), reg("XMM", true, false), imm(8),
			impReg("RCX", "GPR64", false, true), flags("", flagsNoAF))
	}
	for _, m := range []string{"PCMPESTRM", "PCMPISTRM"} {
		b.instr(m, "SSE4.2", "VECINT", nil, reg("XMM", true, false), reg("XMM", true, false), imm(8),
			impReg("XMM0", "XMM", false, true), flags("", flagsNoAF))
	}
	for _, w := range []int{8, 16, 32, 64} {
		b.instr("CRC32", "SSE4.2", "INT", nil, reg("GPR64", true, true), reg(gprClass(w), true, false))
		b.instr("CRC32", "SSE4.2", "INT", nil, reg("GPR64", true, true), mem(w, true, false))
	}
}

// AES and carry-less multiply ---------------------------------------------------

func genAES(b *builder) {
	// Section 7.3.1 case study: AESDEC and friends.
	for _, m := range []string{"AESDEC", "AESDECLAST", "AESENC", "AESENCLAST"} {
		sseBinary(b, m, "AES", "VECINT", nil, 128, false)
	}
	sseUnary(b, "AESIMC", "AES", "VECINT", nil, 128, false)
	sseUnary(b, "AESKEYGENASSIST", "AES", "VECINT", nil, 128, true)
	sseBinary(b, "PCLMULQDQ", "CLMUL", "VECINT", nil, 128, true)
}

// AVX / AVX2 --------------------------------------------------------------------

func genAVX(b *builder) {
	// Moves (XMM and YMM forms).
	for _, m := range []string{"VMOVAPS", "VMOVUPS", "VMOVAPD", "VMOVUPD", "VMOVDQA", "VMOVDQU"} {
		dom := "FP"
		if m == "VMOVDQA" || m == "VMOVDQU" {
			dom = "VECINT"
		}
		for _, cls := range []string{"XMM", "YMM"} {
			w := 128
			if cls == "YMM" {
				w = 256
			}
			b.instr(m, "AVX", dom, attrs(attrMoveElim), reg(cls, false, true), reg(cls, true, false))
			b.instr(m, "AVX", dom, nil, reg(cls, false, true), mem(w, true, false))
			b.instr(m, "AVX", dom, nil, mem(w, false, true), reg(cls, true, false))
		}
	}
	b.instr("VMOVD", "AVX", "VECINT", nil, reg("XMM", false, true), reg("GPR32", true, false))
	b.instr("VMOVD", "AVX", "VECINT", nil, reg("GPR32", false, true), reg("XMM", true, false))
	b.instr("VMOVQ", "AVX", "VECINT", nil, reg("XMM", false, true), reg("GPR64", true, false))
	b.instr("VMOVQ", "AVX", "VECINT", nil, reg("GPR64", false, true), reg("XMM", true, false))
	b.instr("VZEROUPPER", "AVX", "FP", nil)
	b.instr("VZEROALL", "AVX", "FP", nil)

	// Packed FP arithmetic: AVX gives three-operand XMM and YMM forms.
	type fpOp struct {
		base    string
		divider bool
	}
	fpOps := []fpOp{{"ADD", false}, {"SUB", false}, {"MUL", false}, {"DIV", true}, {"MIN", false}, {"MAX", false}}
	for _, op := range fpOps {
		for _, suffix := range []string{"PS", "PD"} {
			var at []string
			if op.divider {
				at = attrs(attrDivider)
			}
			avxBinary(b, "V"+op.base+suffix, "AVX", "FP", at, true, false)
		}
		for _, suffix := range []string{"SS", "SD"} {
			var at []string
			if op.divider {
				at = attrs(attrDivider)
			}
			avxBinary(b, "V"+op.base+suffix, "AVX", "FP", at, false, false)
		}
	}
	for _, suffix := range []string{"PS", "PD"} {
		avxUnary(b, "VSQRT"+suffix, "AVX", "FP", attrs(attrDivider), true, false)
		avxBinary(b, "VAND"+suffix, "AVX", "FP", nil, true, false)
		avxBinary(b, "VANDN"+suffix, "AVX", "FP", nil, true, false)
		avxBinary(b, "VOR"+suffix, "AVX", "FP", nil, true, false)
		avxBinary(b, "VXOR"+suffix, "AVX", "FP", attrs(attrZeroIdiom), true, false)
		avxBinary(b, "VCMP"+suffix, "AVX", "FP", nil, true, true)
		avxBinary(b, "VSHUF"+suffix, "AVX", "FP", nil, true, true)
		avxBinary(b, "VUNPCKL"+suffix, "AVX", "FP", nil, true, false)
		avxBinary(b, "VUNPCKH"+suffix, "AVX", "FP", nil, true, false)
		avxBinary(b, "VBLEND"+suffix, "AVX", "FP", nil, true, true)
		avxBinary(b, "VADDSUB"+suffix, "AVX", "FP", nil, true, false)
		avxBinary(b, "VHADD"+suffix, "AVX", "FP", nil, true, false)
		avxBinary(b, "VHSUB"+suffix, "AVX", "FP", nil, true, false)
	}
	avxUnary(b, "VRCPPS", "AVX", "FP", nil, true, false)
	avxUnary(b, "VRSQRTPS", "AVX", "FP", nil, true, false)
	for _, m := range []string{"VROUNDPS", "VROUNDPD"} {
		avxUnary(b, m, "AVX", "FP", nil, true, true)
	}
	avxUnary(b, "VMOVSHDUP", "AVX", "FP", nil, true, false)
	avxUnary(b, "VMOVSLDUP", "AVX", "FP", nil, true, false)
	avxUnary(b, "VMOVDDUP", "AVX", "FP", nil, true, false)
	// Four-operand variable blends (register selector).
	for _, m := range []string{"VBLENDVPS", "VBLENDVPD", "VPBLENDVB"} {
		dom := "FP"
		ext := "AVX"
		if m == "VPBLENDVB" {
			dom = "VECINT"
		}
		for _, cls := range []string{"XMM", "YMM"} {
			if m == "VPBLENDVB" && cls == "YMM" {
				ext = "AVX2"
			}
			b.instr(m, ext, dom, nil, reg(cls, false, true), reg(cls, true, false),
				reg(cls, true, false), reg(cls, true, false))
		}
	}
	// Lane manipulation.
	b.instr("VEXTRACTF128", "AVX", "FP", nil, reg("XMM", false, true), reg("YMM", true, false), imm(8))
	b.instr("VINSERTF128", "AVX", "FP", nil, reg("YMM", false, true), reg("YMM", true, false), reg("XMM", true, false), imm(8))
	b.instr("VPERM2F128", "AVX", "FP", nil, reg("YMM", false, true), reg("YMM", true, false), reg("YMM", true, false), imm(8))
	b.instr("VBROADCASTSS", "AVX", "FP", nil, reg("XMM", false, true), mem(32, true, false))
	b.instr("VBROADCASTSS", "AVX", "FP", attrs(), reg("YMM", false, true), mem(32, true, false))
	b.instr("VBROADCASTSD", "AVX", "FP", nil, reg("YMM", false, true), mem(64, true, false))
	b.instr("VBROADCASTF128", "AVX", "FP", nil, reg("YMM", false, true), mem(128, true, false))
	for _, m := range []string{"VPERMILPS", "VPERMILPD"} {
		avxBinary(b, m, "AVX", "FP", nil, true, false)
	}
	b.instr("VTESTPS", "AVX", "FP", nil, reg("XMM", true, false), reg("XMM", true, false), flags("", "CF+ZF"))
	b.instr("VTESTPS", "AVX", "FP", nil, reg("YMM", true, false), reg("YMM", true, false), flags("", "CF+ZF"))
	b.instr("VMASKMOVPS", "AVX", "FP", nil, reg("XMM", false, true), reg("XMM", true, false), mem(128, true, false))
	b.instr("VMASKMOVPS", "AVX", "FP", nil, reg("YMM", false, true), reg("YMM", true, false), mem(256, true, false))

	// AVX versions of the AES and CLMUL instructions (XMM only).
	for _, m := range []string{"VAESDEC", "VAESDECLAST", "VAESENC", "VAESENCLAST"} {
		avxBinary(b, m, "AVX", "VECINT", nil, false, false)
	}
	avxUnary(b, "VAESIMC", "AVX", "VECINT", nil, false, false)
	avxBinary(b, "VPCLMULQDQ", "AVX", "VECINT", nil, false, true)

	// Packed integer: XMM forms are AVX, YMM forms are AVX2.
	avxIntBinary := func(mnemonic string, zeroIdiom bool) {
		var at []string
		if zeroIdiom {
			at = attrs(attrZeroIdiom)
		}
		ops := []isa.Operand{reg("XMM", false, true), reg("XMM", true, false), reg("XMM", true, false)}
		memOps := []isa.Operand{reg("XMM", false, true), reg("XMM", true, false), mem(128, true, false)}
		b.instr(mnemonic, "AVX", "VECINT", at, ops...)
		b.instr(mnemonic, "AVX", "VECINT", nil, memOps...)
		yops := []isa.Operand{reg("YMM", false, true), reg("YMM", true, false), reg("YMM", true, false)}
		ymemOps := []isa.Operand{reg("YMM", false, true), reg("YMM", true, false), mem(256, true, false)}
		b.instr(mnemonic, "AVX2", "VECINT", at, yops...)
		b.instr(mnemonic, "AVX2", "VECINT", nil, ymemOps...)
	}
	for _, m := range []string{"VPADDB", "VPADDW", "VPADDD", "VPADDQ", "VPSUBB", "VPSUBW", "VPSUBD", "VPSUBQ",
		"VPADDSB", "VPADDSW", "VPSUBSB", "VPSUBSW", "VPAND", "VPANDN", "VPOR",
		"VPMULLW", "VPMULLD", "VPMULHW", "VPMULUDQ", "VPMADDWD", "VPSADBW",
		"VPCMPEQB", "VPCMPEQW", "VPCMPEQD", "VPCMPEQQ",
		"VPMINSB", "VPMAXSB", "VPMINUB", "VPMAXUB", "VPMINSW", "VPMAXSW", "VPMINSD", "VPMAXSD",
		"VPUNPCKLBW", "VPUNPCKLWD", "VPUNPCKLDQ", "VPUNPCKLQDQ",
		"VPUNPCKHBW", "VPUNPCKHWD", "VPUNPCKHDQ", "VPUNPCKHQDQ",
		"VPACKSSWB", "VPACKSSDW", "VPACKUSWB", "VPACKUSDW",
		"VPSHUFB", "VPAVGB", "VPAVGW", "VPMADDUBSW", "VPMULHRSW"} {
		avxIntBinary(m, false)
	}
	for _, m := range []string{"VPXOR", "VPCMPGTB", "VPCMPGTW", "VPCMPGTD", "VPCMPGTQ"} {
		avxIntBinary(m, true)
	}
	avxBinary(b, "VMPSADBW", "AVX", "VECINT", nil, false, true)
	b.instr("VMPSADBW", "AVX2", "VECINT", nil, reg("YMM", false, true), reg("YMM", true, false), reg("YMM", true, false), imm(8))
	avxBinary(b, "VPALIGNR", "AVX", "VECINT", nil, false, true)
	b.instr("VPALIGNR", "AVX2", "VECINT", nil, reg("YMM", false, true), reg("YMM", true, false), reg("YMM", true, false), imm(8))
	// Shifts.
	for _, m := range []string{"VPSLLW", "VPSLLD", "VPSLLQ", "VPSRLW", "VPSRLD", "VPSRLQ", "VPSRAW", "VPSRAD"} {
		b.instr(m, "AVX", "VECINT", nil, reg("XMM", false, true), reg("XMM", true, false), reg("XMM", true, false))
		b.instr(m, "AVX", "VECINT", nil, reg("XMM", false, true), reg("XMM", true, false), imm(8))
		b.instr(m, "AVX2", "VECINT", nil, reg("YMM", false, true), reg("YMM", true, false), reg("XMM", true, false))
		b.instr(m, "AVX2", "VECINT", nil, reg("YMM", false, true), reg("YMM", true, false), imm(8))
	}
	// AVX2 variable shifts.
	for _, m := range []string{"VPSLLVD", "VPSLLVQ", "VPSRLVD", "VPSRLVQ", "VPSRAVD"} {
		b.instr(m, "AVX2", "VECINT", nil, reg("XMM", false, true), reg("XMM", true, false), reg("XMM", true, false))
		b.instr(m, "AVX2", "VECINT", nil, reg("YMM", false, true), reg("YMM", true, false), reg("YMM", true, false))
	}
	// AVX2 permutes, broadcasts, lane ops.
	for _, m := range []string{"VPSHUFD", "VPSHUFLW", "VPSHUFHW"} {
		b.instr(m, "AVX", "VECINT", nil, reg("XMM", false, true), reg("XMM", true, false), imm(8))
		b.instr(m, "AVX2", "VECINT", nil, reg("YMM", false, true), reg("YMM", true, false), imm(8))
	}
	b.instr("VPERMD", "AVX2", "VECINT", nil, reg("YMM", false, true), reg("YMM", true, false), reg("YMM", true, false))
	b.instr("VPERMQ", "AVX2", "VECINT", nil, reg("YMM", false, true), reg("YMM", true, false), imm(8))
	b.instr("VPERMPS", "AVX2", "FP", nil, reg("YMM", false, true), reg("YMM", true, false), reg("YMM", true, false))
	b.instr("VPERMPD", "AVX2", "FP", nil, reg("YMM", false, true), reg("YMM", true, false), imm(8))
	b.instr("VPERM2I128", "AVX2", "VECINT", nil, reg("YMM", false, true), reg("YMM", true, false), reg("YMM", true, false), imm(8))
	b.instr("VEXTRACTI128", "AVX2", "VECINT", nil, reg("XMM", false, true), reg("YMM", true, false), imm(8))
	b.instr("VINSERTI128", "AVX2", "VECINT", nil, reg("YMM", false, true), reg("YMM", true, false), reg("XMM", true, false), imm(8))
	for _, m := range []string{"VPBROADCASTB", "VPBROADCASTW", "VPBROADCASTD", "VPBROADCASTQ"} {
		b.instr(m, "AVX2", "VECINT", nil, reg("XMM", false, true), reg("XMM", true, false))
		b.instr(m, "AVX2", "VECINT", nil, reg("YMM", false, true), reg("XMM", true, false))
	}
	b.instr("VPMOVMSKB", "AVX2", "VECINT", nil, reg("GPR32", false, true), reg("YMM", true, false))
	for _, m := range []string{"VPMOVSXBW", "VPMOVSXWD", "VPMOVSXDQ", "VPMOVZXBW", "VPMOVZXWD", "VPMOVZXDQ"} {
		b.instr(m, "AVX", "VECINT", nil, reg("XMM", false, true), reg("XMM", true, false))
		b.instr(m, "AVX2", "VECINT", nil, reg("YMM", false, true), reg("XMM", true, false))
	}
	// Gathers (AVX2).
	for _, m := range []string{"VPGATHERDD", "VGATHERDPS"} {
		dom := "VECINT"
		if m == "VGATHERDPS" {
			dom = "FP"
		}
		b.instr(m, "AVX2", dom, nil, reg("XMM", true, true), mem(128, true, false), reg("XMM", true, true))
		b.instr(m, "AVX2", dom, nil, reg("YMM", true, true), mem(256, true, false), reg("YMM", true, true))
	}
	// Conversions.
	for _, m := range []string{"VCVTDQ2PS", "VCVTPS2DQ", "VCVTTPS2DQ"} {
		avxUnary(b, m, "AVX", "FP", nil, true, false)
	}
	avxUnary(b, "VCVTPS2PD", "AVX", "FP", nil, false, false)
	b.instr("VCVTPS2PD", "AVX", "FP", nil, reg("YMM", false, true), reg("XMM", true, false))
	b.instr("VCVTPD2PS", "AVX", "FP", nil, reg("XMM", false, true), reg("YMM", true, false))
}

// FMA ----------------------------------------------------------------------------

func genFMA(b *builder) {
	for _, form := range []string{"132", "213", "231"} {
		for _, kind := range []string{"PS", "PD", "SS", "SD"} {
			for _, op := range []string{"VFMADD", "VFMSUB", "VFNMADD", "VFNMSUB"} {
				mnemonic := op + form + kind
				wantYMM := kind == "PS" || kind == "PD"
				memWidth := 128
				switch kind {
				case "SS":
					memWidth = 32
				case "SD":
					memWidth = 64
				}
				// FMA destination is also a source (op1 rw).
				b.instr(mnemonic, "FMA", "FP", nil,
					reg("XMM", true, true), reg("XMM", true, false), reg("XMM", true, false))
				b.instr(mnemonic, "FMA", "FP", nil,
					reg("XMM", true, true), reg("XMM", true, false), mem(memWidth, true, false))
				if wantYMM {
					b.instr(mnemonic, "FMA", "FP", nil,
						reg("YMM", true, true), reg("YMM", true, false), reg("YMM", true, false))
					b.instr(mnemonic, "FMA", "FP", nil,
						reg("YMM", true, true), reg("YMM", true, false), mem(256, true, false))
				}
			}
		}
	}
}

// F16C ------------------------------------------------------------------------------

func genF16C(b *builder) {
	b.instr("VCVTPH2PS", "F16C", "FP", nil, reg("XMM", false, true), reg("XMM", true, false))
	b.instr("VCVTPH2PS", "F16C", "FP", nil, reg("YMM", false, true), reg("XMM", true, false))
	b.instr("VCVTPH2PS", "F16C", "FP", nil, reg("XMM", false, true), mem(64, true, false))
	b.instr("VCVTPS2PH", "F16C", "FP", nil, reg("XMM", false, true), reg("XMM", true, false), imm(8))
	b.instr("VCVTPS2PH", "F16C", "FP", nil, reg("XMM", false, true), reg("YMM", true, false), imm(8))
	b.instr("VCVTPS2PH", "F16C", "FP", nil, mem(64, false, true), reg("XMM", true, false), imm(8))
}
