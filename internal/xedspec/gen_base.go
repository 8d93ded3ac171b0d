package xedspec

import "uopsinfo/internal/isa"

// genBase emits the scalar integer (non-vector) part of the instruction set:
// the BASE, BMI, ADX and SYSTEM extensions.
func genBase(b *builder) {
	genALU(b)
	genMov(b)
	genShifts(b)
	genUnary(b)
	genMulDiv(b)
	genCMOVSet(b)
	genBitOps(b)
	genStack(b)
	genFlagsOps(b)
	genMisc(b)
	genBMI(b)
	genADX(b)
	genLockRep(b)
	genSystem(b)
}

var gprWidths = []int{8, 16, 32, 64}

// genALU emits the two-operand arithmetic/logic instructions in all their
// register/memory/immediate forms.
func genALU(b *builder) {
	type aluOp struct {
		mnemonic  string
		readFlags string // flags read ("" for none)
		zeroIdiom bool   // reg-reg form with equal registers is a zero idiom
		writesDst bool   // false for CMP/TEST: only flags are written
	}
	ops := []aluOp{
		{"ADD", "", false, true},
		{"SUB", "", true, true},
		{"AND", "", false, true},
		{"OR", "", false, true},
		{"XOR", "", true, true},
		{"ADC", flagsCF, false, true},
		{"SBB", flagsCF, false, true},
		{"CMP", "", false, false},
	}
	for _, op := range ops {
		for _, w := range gprWidths {
			cls := gprClass(w)
			immW := w
			if immW == 64 {
				immW = 32 // 64-bit ALU forms take a sign-extended 32-bit immediate
			}
			var at []string
			if op.zeroIdiom {
				at = attrs(attrZeroIdiom)
			}
			fl := flags(op.readFlags, flagsAll)
			// Register-register.
			b.instr(op.mnemonic, "BASE", "INT", at,
				reg(cls, true, op.writesDst), reg(cls, true, false), fl)
			// Register-memory (load form).
			b.instr(op.mnemonic, "BASE", "INT", nil,
				reg(cls, true, op.writesDst), mem(w, true, false), fl)
			// Memory-register (store form).
			b.instr(op.mnemonic, "BASE", "INT", nil,
				mem(w, true, op.writesDst), reg(cls, true, false), fl)
			// Register-immediate.
			b.instr(op.mnemonic, "BASE", "INT", nil,
				reg(cls, true, op.writesDst), imm(immW), fl)
			// Memory-immediate.
			b.instr(op.mnemonic, "BASE", "INT", nil,
				mem(w, true, op.writesDst), imm(immW), fl)
		}
	}
	// TEST: reads both operands, writes flags (all but AF architecturally
	// defined; AF is undefined, we model it as written).
	for _, w := range gprWidths {
		cls := gprClass(w)
		immW := w
		if immW == 64 {
			immW = 32
		}
		fl := flags("", flagsAll)
		b.instr("TEST", "BASE", "INT", nil, reg(cls, true, false), reg(cls, true, false), fl)
		b.instr("TEST", "BASE", "INT", nil, mem(w, true, false), reg(cls, true, false), fl)
		b.instr("TEST", "BASE", "INT", nil, reg(cls, true, false), imm(immW), fl)
		b.instr("TEST", "BASE", "INT", nil, mem(w, true, false), imm(immW), fl)
	}
}

// genMov emits MOV, MOVSX, MOVZX, MOVSXD and MOVBE variants.
func genMov(b *builder) {
	for _, w := range gprWidths {
		cls := gprClass(w)
		immW := w
		if immW == 64 {
			immW = 32
		}
		moveElim := []string(nil)
		if w == 32 || w == 64 {
			moveElim = attrs(attrMoveElim)
		}
		b.instr("MOV", "BASE", "INT", moveElim, reg(cls, false, true), reg(cls, true, false))
		b.instr("MOV", "BASE", "INT", nil, reg(cls, false, true), mem(w, true, false))
		b.instr("MOV", "BASE", "INT", nil, mem(w, false, true), reg(cls, true, false))
		b.instr("MOV", "BASE", "INT", nil, reg(cls, false, true), imm(immW))
		b.instr("MOV", "BASE", "INT", nil, mem(w, false, true), imm(immW))
	}
	// Sign/zero extension between different widths. MOVSX is the latency
	// chain instruction of choice for general-purpose registers (Section
	// 5.2.1): it is never eliminated and avoids partial-register stalls.
	type extForm struct{ dst, src int }
	sxForms := []extForm{{16, 8}, {32, 8}, {32, 16}, {64, 8}, {64, 16}}
	for _, f := range sxForms {
		b.instr("MOVSX", "BASE", "INT", nil, reg(gprClass(f.dst), false, true), reg(gprClass(f.src), true, false))
		b.instr("MOVSX", "BASE", "INT", nil, reg(gprClass(f.dst), false, true), mem(f.src, true, false))
		b.instr("MOVZX", "BASE", "INT", nil, reg(gprClass(f.dst), false, true), reg(gprClass(f.src), true, false))
		b.instr("MOVZX", "BASE", "INT", nil, reg(gprClass(f.dst), false, true), mem(f.src, true, false))
	}
	b.instr("MOVSXD", "BASE", "INT", nil, reg("GPR64", false, true), reg("GPR32", true, false))
	b.instr("MOVSXD", "BASE", "INT", nil, reg("GPR64", false, true), mem(32, true, false))
	// MOVBE (load/store with byte swap); introduced on Haswell desktop parts.
	for _, w := range []int{16, 32, 64} {
		cls := gprClass(w)
		b.instr("MOVBE", "MOVBE", "INT", nil, reg(cls, false, true), mem(w, true, false))
		b.instr("MOVBE", "MOVBE", "INT", nil, mem(w, false, true), reg(cls, true, false))
	}
}

// genShifts emits shift, rotate and double-precision shift variants. The
// immediate and CL-count forms conditionally preserve flags, which makes the
// flags an implicit input operand as well as an output (the source of the
// multi-latency behaviour discussed in Section 7.3.5).
func genShifts(b *builder) {
	shifts := []struct {
		mnemonic   string
		readsFlags bool
	}{
		{"SHL", true}, {"SHR", true}, {"SAR", true},
		{"ROL", true}, {"ROR", true},
		{"RCL", true}, {"RCR", true},
	}
	for _, s := range shifts {
		rf := ""
		if s.readsFlags {
			rf = flagsAll
		}
		for _, w := range gprWidths {
			cls := gprClass(w)
			fl := flags(rf, flagsCFOF)
			// Shift by immediate.
			b.instr(s.mnemonic, "BASE", "INT", nil, reg(cls, true, true), imm(8), fl)
			b.instr(s.mnemonic, "BASE", "INT", nil, mem(w, true, true), imm(8), fl)
			// Shift by CL (implicit register count).
			b.instr(s.mnemonic, "BASE", "INT", nil, reg(cls, true, true),
				impReg("CL", "GPR8", true, false), fl)
			b.instr(s.mnemonic, "BASE", "INT", nil, mem(w, true, true),
				impReg("CL", "GPR8", true, false), fl)
		}
	}
	// Double-precision shifts (Section 7.3.2 case study). Unlike the plain
	// shifts they do not preserve flags conditionally, so the flags are a
	// pure output.
	for _, m := range []string{"SHLD", "SHRD"} {
		for _, w := range []int{16, 32, 64} {
			cls := gprClass(w)
			fl := flags("", flagsAll)
			b.instr(m, "BASE", "INT", nil, reg(cls, true, true), reg(cls, true, false), imm(8), fl)
			b.instr(m, "BASE", "INT", nil, mem(w, true, true), reg(cls, true, false), imm(8), fl)
			b.instr(m, "BASE", "INT", nil, reg(cls, true, true), reg(cls, true, false),
				impReg("CL", "GPR8", true, false), fl)
		}
	}
}

// genUnary emits single-operand read-modify-write instructions.
func genUnary(b *builder) {
	for _, m := range []string{"INC", "DEC"} {
		for _, w := range gprWidths {
			fl := flags("", flagsNoCF) // INC/DEC preserve CF
			b.instr(m, "BASE", "INT", nil, reg(gprClass(w), true, true), fl)
			b.instr(m, "BASE", "INT", nil, mem(w, true, true), fl)
		}
	}
	for _, m := range []string{"NEG"} {
		for _, w := range gprWidths {
			fl := flags("", flagsAll)
			b.instr(m, "BASE", "INT", nil, reg(gprClass(w), true, true), fl)
			b.instr(m, "BASE", "INT", nil, mem(w, true, true), fl)
		}
	}
	for _, w := range gprWidths {
		b.instr("NOT", "BASE", "INT", nil, reg(gprClass(w), true, true))
		b.instr("NOT", "BASE", "INT", nil, mem(w, true, true))
	}
	// LEA: pure address generation, no flags.
	b.instr("LEA", "BASE", "INT", nil, reg("GPR32", false, true), mem(32, false, false))
	b.instr("LEA", "BASE", "INT", nil, reg("GPR64", false, true), mem(64, false, false))
}

// genMulDiv emits multiplication and division variants. The divisions use the
// non-fully-pipelined divider units and are handled specially by the latency
// and throughput algorithms (Section 5.2.5).
func genMulDiv(b *builder) {
	// One-operand forms with implicit RAX/RDX.
	for _, m := range []string{"MUL", "IMUL"} {
		for _, w := range gprWidths {
			fl := flags("", flagsCFOF)
			rax := impReg("RAX", "GPR64", true, true)
			rdx := impReg("RDX", "GPR64", false, true)
			if w == 8 {
				rdx = impReg("RDX", "GPR64", false, false)
			}
			b.instr(m, "BASE", "INT", nil, reg(gprClass(w), true, false), rax, rdx, fl)
			b.instr(m, "BASE", "INT", nil, mem(w, true, false), rax, rdx, fl)
		}
	}
	// Two- and three-operand IMUL.
	for _, w := range []int{16, 32, 64} {
		cls := gprClass(w)
		fl := flags("", flagsCFOF)
		immW := w
		if immW == 64 {
			immW = 32
		}
		b.instr("IMUL", "BASE", "INT", nil, reg(cls, true, true), reg(cls, true, false), fl)
		b.instr("IMUL", "BASE", "INT", nil, reg(cls, true, true), mem(w, true, false), fl)
		b.instr("IMUL", "BASE", "INT", nil, reg(cls, false, true), reg(cls, true, false), imm(immW), fl)
		b.instr("IMUL", "BASE", "INT", nil, reg(cls, false, true), mem(w, true, false), imm(immW), fl)
	}
	// Divisions.
	for _, m := range []string{"DIV", "IDIV"} {
		for _, w := range gprWidths {
			fl := flags("", flagsAll)
			rax := impReg("RAX", "GPR64", true, true)
			rdx := impReg("RDX", "GPR64", true, true)
			if w == 8 {
				rdx = impReg("RDX", "GPR64", false, false)
			}
			b.instr(m, "BASE", "INT", attrs(attrDivider), reg(gprClass(w), true, false), rax, rdx, fl)
			b.instr(m, "BASE", "INT", attrs(attrDivider), mem(w, true, false), rax, rdx, fl)
		}
	}
}

// conditionCodes are the condition-code suffixes used by CMOVcc, SETcc and Jcc,
// together with the flags each condition reads.
var conditionCodes = []struct {
	suffix string
	reads  string
}{
	{"O", "OF"}, {"NO", "OF"},
	{"B", "CF"}, {"NB", "CF"},
	{"Z", "ZF"}, {"NZ", "ZF"},
	{"BE", "CF+ZF"}, {"NBE", "CF+ZF"},
	{"S", "SF"}, {"NS", "SF"},
	{"P", "PF"}, {"NP", "PF"},
	{"L", "SF+OF"}, {"NL", "SF+OF"},
	{"LE", "SF+ZF+OF"}, {"NLE", "SF+ZF+OF"},
}

// genCMOVSet emits conditional moves, conditional sets and conditional jumps.
func genCMOVSet(b *builder) {
	for _, cc := range conditionCodes {
		for _, w := range []int{16, 32, 64} {
			cls := gprClass(w)
			fl := flags(cc.reads, "")
			b.instr("CMOV"+cc.suffix, "BASE", "INT", nil, reg(cls, true, true), reg(cls, true, false), fl)
			b.instr("CMOV"+cc.suffix, "BASE", "INT", nil, reg(cls, true, true), mem(w, true, false), fl)
		}
		fl := flags(cc.reads, "")
		b.instr("SET"+cc.suffix, "BASE", "INT", nil, reg("GPR8", false, true), fl)
		b.instr("SET"+cc.suffix, "BASE", "INT", nil, mem(8, false, true), fl)
		b.instr("J"+cc.suffix, "BASE", "INT", attrs(attrControlFlow), imm(32), flags(cc.reads, ""))
	}
	b.instr("JMP", "BASE", "INT", attrs(attrControlFlow), imm(32))
	b.instr("JMP", "BASE", "INT", attrs(attrControlFlow), reg("GPR64", true, false))
	b.instr("CALL", "BASE", "INT", attrs(attrControlFlow), imm(32), impReg("RSP", "GPR64", true, true))
	b.instr("RET", "BASE", "INT", attrs(attrControlFlow), impReg("RSP", "GPR64", true, true))
}

// genBitOps emits bit-scan, bit-test, population-count and byte-swap variants.
func genBitOps(b *builder) {
	for _, m := range []string{"BSF", "BSR"} {
		for _, w := range []int{16, 32, 64} {
			cls := gprClass(w)
			fl := flags("", flagsZF)
			b.instr(m, "BASE", "INT", nil, reg(cls, true, true), reg(cls, true, false), fl)
			b.instr(m, "BASE", "INT", nil, reg(cls, true, true), mem(w, true, false), fl)
		}
	}
	for _, m := range []string{"POPCNT"} {
		for _, w := range []int{16, 32, 64} {
			cls := gprClass(w)
			fl := flags("", flagsAll)
			b.instr(m, "SSE4.2", "INT", nil, reg(cls, false, true), reg(cls, true, false), fl)
			b.instr(m, "SSE4.2", "INT", nil, reg(cls, false, true), mem(w, true, false), fl)
		}
	}
	for _, m := range []string{"LZCNT", "TZCNT"} {
		for _, w := range []int{16, 32, 64} {
			cls := gprClass(w)
			fl := flags("", "CF+ZF")
			b.instr(m, "BMI", "INT", nil, reg(cls, false, true), reg(cls, true, false), fl)
			b.instr(m, "BMI", "INT", nil, reg(cls, false, true), mem(w, true, false), fl)
		}
	}
	for _, m := range []string{"BT", "BTS", "BTR", "BTC"} {
		write := m != "BT"
		for _, w := range []int{16, 32, 64} {
			cls := gprClass(w)
			fl := flags("", flagsCF)
			b.instr(m, "BASE", "INT", nil, reg(cls, true, write), reg(cls, true, false), fl)
			b.instr(m, "BASE", "INT", nil, reg(cls, true, write), imm(8), fl)
		}
	}
	// BSWAP: the 32-bit and 64-bit variants have a different µop count on
	// Skylake (Section 7.2).
	b.instr("BSWAP", "BASE", "INT", nil, reg("GPR32", true, true))
	b.instr("BSWAP", "BASE", "INT", nil, reg("GPR64", true, true))
	// Exchange and exchange-add (multi-latency case studies, Section 7.3.5).
	for _, w := range gprWidths {
		cls := gprClass(w)
		b.instr("XCHG", "BASE", "INT", nil, reg(cls, true, true), reg(cls, true, true))
		b.instr("XCHG", "BASE", "INT", attrs(attrLock), mem(w, true, true), reg(cls, true, true))
		b.instr("XADD", "BASE", "INT", nil, reg(cls, true, true), reg(cls, true, true), flags("", flagsAll))
		b.instr("CMPXCHG", "BASE", "INT", nil, reg(cls, true, true), reg(cls, true, false),
			impReg("RAX", "GPR64", true, true), flags("", flagsAll))
	}
}

// genStack emits push/pop variants.
func genStack(b *builder) {
	rsp := func(read, write bool) isa.Operand { return impReg("RSP", "GPR64", read, write) }
	for _, w := range []int{16, 64} {
		cls := gprClass(w)
		b.instr("PUSH", "BASE", "INT", nil, reg(cls, true, false), rsp(true, true))
		b.instr("POP", "BASE", "INT", nil, reg(cls, false, true), rsp(true, true))
	}
	b.instr("PUSH", "BASE", "INT", nil, imm(32), rsp(true, true))
	b.instr("PUSH", "BASE", "INT", nil, mem(64, true, false), rsp(true, true))
	b.instr("POP", "BASE", "INT", nil, mem(64, false, true), rsp(true, true))
}

// genFlagsOps emits instructions that manipulate the status flags directly.
func genFlagsOps(b *builder) {
	b.instr("CMC", "BASE", "INT", nil, flags(flagsCF, flagsCF))
	b.instr("CLC", "BASE", "INT", nil, flags("", flagsCF))
	b.instr("STC", "BASE", "INT", nil, flags("", flagsCF))
	b.instr("LAHF", "BASE", "INT", nil, impReg("AL", "GPR8", false, true), flags(flagsAll, ""))
	b.instr("SAHF", "BASE", "INT", nil, impReg("AL", "GPR8", true, false), flags("", flagsAll))
	// Sign-extension of the accumulator.
	b.instr("CBW", "BASE", "INT", nil, impReg("RAX", "GPR64", true, true))
	b.instr("CWDE", "BASE", "INT", nil, impReg("RAX", "GPR64", true, true))
	b.instr("CDQE", "BASE", "INT", nil, impReg("RAX", "GPR64", true, true))
	b.instr("CWD", "BASE", "INT", nil, impReg("RAX", "GPR64", true, false), impReg("RDX", "GPR64", false, true))
	b.instr("CDQ", "BASE", "INT", nil, impReg("RAX", "GPR64", true, false), impReg("RDX", "GPR64", false, true))
	b.instr("CQO", "BASE", "INT", nil, impReg("RAX", "GPR64", true, false), impReg("RDX", "GPR64", false, true))
}

// genMisc emits NOPs, PAUSE and miscellaneous instructions.
func genMisc(b *builder) {
	b.instr("NOP", "BASE", "INT", attrs(attrNOP))
	// Multi-byte NOP with a register operand form.
	b.instr("NOP", "BASE", "INT", attrs(attrNOP), reg("GPR32", true, false))
	b.instr("PAUSE", "BASE", "INT", nil)
	b.instr("MFENCE", "BASE", "INT", attrs(attrSerializing))
	b.instr("LFENCE", "BASE", "INT", attrs(attrSerializing))
	b.instr("SFENCE", "BASE", "INT", attrs(attrSerializing))
}

// genBMI emits the BMI1/BMI2 instruction groups (available from Haswell on).
func genBMI(b *builder) {
	for _, w := range []int{32, 64} {
		cls := gprClass(w)
		fl := flags("", flagsAll)
		b.instr("ANDN", "BMI", "INT", nil, reg(cls, false, true), reg(cls, true, false), reg(cls, true, false), fl)
		b.instr("BEXTR", "BMI", "INT", nil, reg(cls, false, true), reg(cls, true, false), reg(cls, true, false), fl)
		b.instr("BZHI", "BMI", "INT", nil, reg(cls, false, true), reg(cls, true, false), reg(cls, true, false), fl)
		for _, m := range []string{"BLSI", "BLSMSK", "BLSR"} {
			b.instr(m, "BMI", "INT", nil, reg(cls, false, true), reg(cls, true, false), fl)
			b.instr(m, "BMI", "INT", nil, reg(cls, false, true), mem(w, true, false), fl)
		}
		for _, m := range []string{"PDEP", "PEXT"} {
			b.instr(m, "BMI", "INT", nil, reg(cls, false, true), reg(cls, true, false), reg(cls, true, false))
		}
		b.instr("RORX", "BMI", "INT", nil, reg(cls, false, true), reg(cls, true, false), imm(8))
		for _, m := range []string{"SARX", "SHLX", "SHRX"} {
			b.instr(m, "BMI", "INT", nil, reg(cls, false, true), reg(cls, true, false), reg(cls, true, false))
		}
		b.instr("MULX", "BMI", "INT", nil, reg(cls, false, true), reg(cls, false, true), reg(cls, true, false),
			impReg("RDX", "GPR64", true, false))
	}
}

// genADX emits the ADX carry-chain extension (available from Broadwell on).
func genADX(b *builder) {
	for _, w := range []int{32, 64} {
		cls := gprClass(w)
		b.instr("ADCX", "ADX", "INT", nil, reg(cls, true, true), reg(cls, true, false), flags(flagsCF, flagsCF))
		b.instr("ADCX", "ADX", "INT", nil, reg(cls, true, true), mem(w, true, false), flags(flagsCF, flagsCF))
		b.instr("ADOX", "ADX", "INT", nil, reg(cls, true, true), reg(cls, true, false), flags("OF", "OF"))
		b.instr("ADOX", "ADX", "INT", nil, reg(cls, true, true), mem(w, true, false), flags("OF", "OF"))
	}
}

// genLockRep emits a representative set of LOCK-prefixed and REP-prefixed
// instructions. The paper excludes these from its IACA µop-count comparison
// because their µop counts are variable (REP) or disagree systematically
// (LOCK); we include them so the comparison logic has something to exclude.
func genLockRep(b *builder) {
	for _, m := range []string{"ADD", "SUB", "AND", "OR", "XOR", "INC", "DEC"} {
		unary := m == "INC" || m == "DEC"
		for _, w := range []int{32, 64} {
			fl := flags("", flagsAll)
			if unary {
				b.instr(m, "BASE", "INT", attrs(attrLock), mem(w, true, true), fl)
			} else {
				b.instr(m, "BASE", "INT", attrs(attrLock), mem(w, true, true), reg(gprClass(w), true, false), fl)
			}
		}
	}
	rsi := impReg("RSI", "GPR64", true, true)
	rdi := impReg("RDI", "GPR64", true, true)
	rcx := impReg("RCX", "GPR64", true, true)
	rax := impReg("RAX", "GPR64", true, false)
	b.instr("MOVSB", "BASE", "INT", attrs(attrRep), rsi, rdi, rcx)
	b.instr("STOSB", "BASE", "INT", attrs(attrRep), rdi, rcx, rax)
	b.instr("LODSB", "BASE", "INT", attrs(attrRep), rsi, rcx, impReg("RAX", "GPR64", false, true))
	b.instr("CMPSB", "BASE", "INT", attrs(attrRep), rsi, rdi, rcx, flags("", flagsAll))
	b.instr("SCASB", "BASE", "INT", attrs(attrRep), rdi, rcx, rax, flags("", flagsAll))
}

// genSystem emits system and serializing instructions. These are excluded
// from the blocking-instruction candidates (Section 5.1.1) but still appear
// in the instruction set.
func genSystem(b *builder) {
	b.instr("CPUID", "SYSTEM", "INT", attrs(attrSystem, attrSerializing),
		impReg("RAX", "GPR64", true, true), impReg("RBX", "GPR64", false, true),
		impReg("RCX", "GPR64", true, true), impReg("RDX", "GPR64", false, true))
	b.instr("RDTSC", "SYSTEM", "INT", attrs(attrSystem),
		impReg("RAX", "GPR64", false, true), impReg("RDX", "GPR64", false, true))
	b.instr("RDTSCP", "SYSTEM", "INT", attrs(attrSystem),
		impReg("RAX", "GPR64", false, true), impReg("RDX", "GPR64", false, true),
		impReg("RCX", "GPR64", false, true))
	b.instr("XGETBV", "SYSTEM", "INT", attrs(attrSystem),
		impReg("RCX", "GPR64", true, false), impReg("RAX", "GPR64", false, true),
		impReg("RDX", "GPR64", false, true))
	b.instr("CLFLUSH", "SYSTEM", "INT", attrs(attrSystem), mem(8, true, false))
	b.instr("CLFLUSHOPT", "CLFLUSHOPT", "INT", attrs(attrSystem), mem(8, true, false))
	b.instr("PREFETCHT0", "SSE", "INT", nil, mem(8, true, false))
	b.instr("PREFETCHT1", "SSE", "INT", nil, mem(8, true, false))
	b.instr("PREFETCHT2", "SSE", "INT", nil, mem(8, true, false))
	b.instr("PREFETCHNTA", "SSE", "INT", nil, mem(8, true, false))
	b.instr("RDRAND", "RDRAND", "INT", attrs(attrSystem), reg("GPR64", false, true), flags("", flagsCF))
	b.instr("RDSEED", "RDSEED", "INT", attrs(attrSystem), reg("GPR64", false, true), flags("", flagsCF))
}
