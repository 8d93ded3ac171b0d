// Package isa models the subset of the x86-64 instruction set needed to
// automatically generate microbenchmarks: register classes, operand kinds,
// explicit and implicit operands, and instruction variants.
//
// The model corresponds to the machine-readable XML instruction description
// the paper derives from Intel XED's configuration files (Section 6.1): it is
// deliberately free of encoding details and keeps exactly the information the
// benchmark generator needs (operand types and widths, read/write attributes,
// implicit operands such as status flags, and instruction attributes such as
// "uses the divider" or "is a serializing instruction").
//
//uopslint:deterministic
package isa

import "fmt"

// RegClass identifies an architectural register file.
type RegClass int

// Register classes. GPR classes are separated by access width because
// operand width determines both encoding variants and microarchitectural
// behaviour (partial register stalls).
const (
	ClassNone RegClass = iota
	ClassGPR8
	ClassGPR16
	ClassGPR32
	ClassGPR64
	ClassXMM
	ClassYMM
	ClassZMM
	ClassMMX
	ClassFlags
)

var regClassNames = map[RegClass]string{
	ClassNone:  "NONE",
	ClassGPR8:  "GPR8",
	ClassGPR16: "GPR16",
	ClassGPR32: "GPR32",
	ClassGPR64: "GPR64",
	ClassXMM:   "XMM",
	ClassYMM:   "YMM",
	ClassZMM:   "ZMM",
	ClassMMX:   "MMX",
	ClassFlags: "FLAGS",
}

func (c RegClass) String() string {
	if s, ok := regClassNames[c]; ok {
		return s
	}
	return fmt.Sprintf("RegClass(%d)", int(c))
}

// Width reports the register width in bits for the class, or 0 if the class
// has no fixed width.
func (c RegClass) Width() int {
	switch c {
	case ClassGPR8:
		return 8
	case ClassGPR16:
		return 16
	case ClassGPR32:
		return 32
	case ClassGPR64:
		return 64
	case ClassXMM:
		return 128
	case ClassYMM:
		return 256
	case ClassZMM:
		return 512
	case ClassMMX:
		return 64
	case ClassFlags:
		return 32
	}
	return 0
}

// IsGPR reports whether the class is a general-purpose register class.
func (c RegClass) IsGPR() bool {
	switch c {
	case ClassGPR8, ClassGPR16, ClassGPR32, ClassGPR64:
		return true
	}
	return false
}

// IsVector reports whether the class is a SIMD register class (XMM/YMM/ZMM).
func (c RegClass) IsVector() bool {
	switch c {
	case ClassXMM, ClassYMM, ClassZMM:
		return true
	}
	return false
}

// ParseRegClass converts a class name as used in the generator tables of the
// xedspec package back into a RegClass. Unknown names yield ClassNone.
func ParseRegClass(s string) RegClass {
	for c, n := range regClassNames {
		if n == s {
			return c
		}
	}
	return ClassNone
}

// Reg is a concrete architectural register. The zero value RegNone means
// "no register".
type Reg int

// General-purpose register families. The 64-bit names are the canonical
// family identifiers; narrower registers alias onto the same family.
const (
	RegNone Reg = iota

	// 64-bit general-purpose registers.
	RAX
	RBX
	RCX
	RDX
	RSI
	RDI
	RBP
	RSP
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15

	// 32-bit general-purpose registers.
	EAX
	EBX
	ECX
	EDX
	ESI
	EDI
	EBP
	ESP
	R8D
	R9D
	R10D
	R11D
	R12D
	R13D
	R14D
	R15D

	// 16-bit general-purpose registers.
	AX
	BX
	CX
	DX
	SI
	DI
	BP
	SP
	R8W
	R9W
	R10W
	R11W
	R12W
	R13W
	R14W
	R15W

	// 8-bit general-purpose registers (low byte).
	AL
	BL
	CL
	DL
	SIL
	DIL
	BPL
	SPL
	R8B
	R9B
	R10B
	R11B
	R12B
	R13B
	R14B
	R15B

	// XMM registers.
	XMM0
	XMM1
	XMM2
	XMM3
	XMM4
	XMM5
	XMM6
	XMM7
	XMM8
	XMM9
	XMM10
	XMM11
	XMM12
	XMM13
	XMM14
	XMM15

	// YMM registers (alias the XMM family).
	YMM0
	YMM1
	YMM2
	YMM3
	YMM4
	YMM5
	YMM6
	YMM7
	YMM8
	YMM9
	YMM10
	YMM11
	YMM12
	YMM13
	YMM14
	YMM15

	// MMX registers.
	MM0
	MM1
	MM2
	MM3
	MM4
	MM5
	MM6
	MM7

	// RFLAGS as a single architectural resource (individual status flags are
	// modelled separately by the simulator, see FlagSet).
	RFLAGS

	numRegs
)

var regNames = [...]string{
	RegNone: "NONE",
	RAX:     "RAX", RBX: "RBX", RCX: "RCX", RDX: "RDX",
	RSI: "RSI", RDI: "RDI", RBP: "RBP", RSP: "RSP",
	R8: "R8", R9: "R9", R10: "R10", R11: "R11",
	R12: "R12", R13: "R13", R14: "R14", R15: "R15",
	EAX: "EAX", EBX: "EBX", ECX: "ECX", EDX: "EDX",
	ESI: "ESI", EDI: "EDI", EBP: "EBP", ESP: "ESP",
	R8D: "R8D", R9D: "R9D", R10D: "R10D", R11D: "R11D",
	R12D: "R12D", R13D: "R13D", R14D: "R14D", R15D: "R15D",
	AX: "AX", BX: "BX", CX: "CX", DX: "DX",
	SI: "SI", DI: "DI", BP: "BP", SP: "SP",
	R8W: "R8W", R9W: "R9W", R10W: "R10W", R11W: "R11W",
	R12W: "R12W", R13W: "R13W", R14W: "R14W", R15W: "R15W",
	AL: "AL", BL: "BL", CL: "CL", DL: "DL",
	SIL: "SIL", DIL: "DIL", BPL: "BPL", SPL: "SPL",
	R8B: "R8B", R9B: "R9B", R10B: "R10B", R11B: "R11B",
	R12B: "R12B", R13B: "R13B", R14B: "R14B", R15B: "R15B",
	XMM0: "XMM0", XMM1: "XMM1", XMM2: "XMM2", XMM3: "XMM3",
	XMM4: "XMM4", XMM5: "XMM5", XMM6: "XMM6", XMM7: "XMM7",
	XMM8: "XMM8", XMM9: "XMM9", XMM10: "XMM10", XMM11: "XMM11",
	XMM12: "XMM12", XMM13: "XMM13", XMM14: "XMM14", XMM15: "XMM15",
	YMM0: "YMM0", YMM1: "YMM1", YMM2: "YMM2", YMM3: "YMM3",
	YMM4: "YMM4", YMM5: "YMM5", YMM6: "YMM6", YMM7: "YMM7",
	YMM8: "YMM8", YMM9: "YMM9", YMM10: "YMM10", YMM11: "YMM11",
	YMM12: "YMM12", YMM13: "YMM13", YMM14: "YMM14", YMM15: "YMM15",
	MM0: "MM0", MM1: "MM1", MM2: "MM2", MM3: "MM3",
	MM4: "MM4", MM5: "MM5", MM6: "MM6", MM7: "MM7",
	RFLAGS: "RFLAGS",
}

func (r Reg) String() string {
	if r >= 0 && int(r) < len(regNames) && regNames[r] != "" {
		return regNames[r]
	}
	return fmt.Sprintf("Reg(%d)", int(r))
}

// NumRegs is the total number of architectural registers modelled.
const NumRegs = int(numRegs)

// Class reports the register class of r.
func (r Reg) Class() RegClass {
	switch {
	case r >= RAX && r <= R15:
		return ClassGPR64
	case r >= EAX && r <= R15D:
		return ClassGPR32
	case r >= AX && r <= R15W:
		return ClassGPR16
	case r >= AL && r <= R15B:
		return ClassGPR8
	case r >= XMM0 && r <= XMM15:
		return ClassXMM
	case r >= YMM0 && r <= YMM15:
		return ClassYMM
	case r >= MM0 && r <= MM7:
		return ClassMMX
	case r == RFLAGS:
		return ClassFlags
	}
	return ClassNone
}

// Width reports the width of r in bits.
func (r Reg) Width() int { return r.Class().Width() }

// Family returns the canonical register that identifies the physical register
// family r belongs to: the 64-bit name for general-purpose registers, the XMM
// name for XMM/YMM pairs, and r itself otherwise. Two registers with the same
// family share storage, so a write to one creates a dependency for a read of
// the other.
func (r Reg) Family() Reg {
	switch {
	case r >= RAX && r <= R15:
		return r
	case r >= EAX && r <= R15D:
		return RAX + (r - EAX)
	case r >= AX && r <= R15W:
		return RAX + (r - AX)
	case r >= AL && r <= R15B:
		return RAX + (r - AL)
	case r >= XMM0 && r <= XMM15:
		return r
	case r >= YMM0 && r <= YMM15:
		return XMM0 + (r - YMM0)
	}
	return r
}

// InFamily returns the register of the requested class that belongs to the
// same family as r, or RegNone if the family has no register of that class.
func (r Reg) InFamily(c RegClass) Reg {
	fam := r.Family()
	switch c {
	case ClassGPR64:
		if fam >= RAX && fam <= R15 {
			return fam
		}
	case ClassGPR32:
		if fam >= RAX && fam <= R15 {
			return EAX + (fam - RAX)
		}
	case ClassGPR16:
		if fam >= RAX && fam <= R15 {
			return AX + (fam - RAX)
		}
	case ClassGPR8:
		if fam >= RAX && fam <= R15 {
			return AL + (fam - RAX)
		}
	case ClassXMM:
		if fam >= XMM0 && fam <= XMM15 {
			return fam
		}
	case ClassYMM:
		if fam >= XMM0 && fam <= XMM15 {
			return YMM0 + (fam - XMM0)
		}
	case ClassMMX:
		if fam >= MM0 && fam <= MM7 {
			return fam
		}
	case ClassFlags:
		return RFLAGS
	}
	return RegNone
}

// RegistersOfClass returns all architectural registers of the given class, in
// a fixed order. The returned slice must not be modified by the caller.
func RegistersOfClass(c RegClass) []Reg {
	switch c {
	case ClassGPR64:
		return gpr64Regs
	case ClassGPR32:
		return gpr32Regs
	case ClassGPR16:
		return gpr16Regs
	case ClassGPR8:
		return gpr8Regs
	case ClassXMM:
		return xmmRegs
	case ClassYMM:
		return ymmRegs
	case ClassMMX:
		return mmxRegs
	case ClassFlags:
		return flagsRegs
	}
	return nil
}

var (
	gpr64Regs = []Reg{RAX, RBX, RCX, RDX, RSI, RDI, RBP, RSP, R8, R9, R10, R11, R12, R13, R14, R15}
	gpr32Regs = []Reg{EAX, EBX, ECX, EDX, ESI, EDI, EBP, ESP, R8D, R9D, R10D, R11D, R12D, R13D, R14D, R15D}
	gpr16Regs = []Reg{AX, BX, CX, DX, SI, DI, BP, SP, R8W, R9W, R10W, R11W, R12W, R13W, R14W, R15W}
	gpr8Regs  = []Reg{AL, BL, CL, DL, SIL, DIL, BPL, SPL, R8B, R9B, R10B, R11B, R12B, R13B, R14B, R15B}
	xmmRegs   = []Reg{XMM0, XMM1, XMM2, XMM3, XMM4, XMM5, XMM6, XMM7, XMM8, XMM9, XMM10, XMM11, XMM12, XMM13, XMM14, XMM15}
	ymmRegs   = []Reg{YMM0, YMM1, YMM2, YMM3, YMM4, YMM5, YMM6, YMM7, YMM8, YMM9, YMM10, YMM11, YMM12, YMM13, YMM14, YMM15}
	mmxRegs   = []Reg{MM0, MM1, MM2, MM3, MM4, MM5, MM6, MM7}
	flagsRegs = []Reg{RFLAGS}
)

// regByName maps each register name Reg.String prints, RegNone's aside, to
// its Reg.
var regByName = func() map[string]Reg {
	m := make(map[string]Reg, len(regNames))
	for r, n := range regNames {
		if n != "" && Reg(r) != RegNone {
			m[n] = Reg(r)
		}
	}
	return m
}()

// ParseReg converts a register name (as printed by Reg.String) back into a
// Reg. Unknown names yield RegNone.
func ParseReg(s string) Reg { return regByName[s] }
