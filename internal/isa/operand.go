package isa

import "fmt"

// OperandKind classifies an instruction operand.
type OperandKind int

// Operand kinds. Memory operands always use the [base] addressing form in
// generated benchmarks (the paper only tests base-register addressing,
// Section 8).
const (
	OpNone  OperandKind = iota
	OpReg               // register operand
	OpMem               // memory operand
	OpImm               // immediate operand
	OpFlags             // the status flags (always implicit)
)

var operandKindNames = map[OperandKind]string{
	OpNone:  "NONE",
	OpReg:   "REG",
	OpMem:   "MEM",
	OpImm:   "IMM",
	OpFlags: "FLAGS",
}

func (k OperandKind) String() string {
	if s, ok := operandKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("OperandKind(%d)", int(k))
}

// Operand describes one (explicit or implicit) operand of an instruction
// variant. An operand can be both a source and a destination (Read and Write
// both set), which is common for the first operand of two-operand arithmetic
// instructions.
type Operand struct {
	// Name is a short identifier for the operand, unique within the
	// instruction: "op1", "op2", ... for explicit operands and a descriptive
	// name ("FLAGS", "RAX", "RCX") for implicit ones.
	Name string

	// Kind is the operand kind.
	Kind OperandKind

	// Class is the register class for OpReg operands; for OpMem operands it
	// describes the class of the value transferred (not of the base
	// register, which is always a 64-bit GPR).
	Class RegClass

	// Width is the operand width in bits (the width of the value read or
	// written). For immediates it is the immediate width.
	Width int

	// Read and Write indicate whether the instruction reads and/or writes
	// the operand.
	Read  bool
	Write bool

	// Implicit marks operands that do not appear in the assembler syntax.
	Implicit bool

	// FixedReg is the architectural register of an implicit register
	// operand (e.g. RAX for MUL, RCX for variable shifts). RegNone for
	// explicit operands.
	FixedReg Reg

	// ReadFlags / WriteFlags are the exact flag subsets accessed by OpFlags
	// operands. They are zero for non-flag operands.
	ReadFlags  FlagSet
	WriteFlags FlagSet
}

// String renders a concise human-readable description, e.g. "op1:REG:GPR64:rw".
func (o Operand) String() string {
	rw := ""
	if o.Read {
		rw += "r"
	}
	if o.Write {
		rw += "w"
	}
	if rw == "" {
		rw = "-"
	}
	suffix := ""
	if o.Implicit {
		suffix = ":implicit"
		if o.FixedReg != RegNone {
			suffix = ":implicit=" + o.FixedReg.String()
		}
	}
	switch o.Kind {
	case OpReg:
		return fmt.Sprintf("%s:REG:%s:%s%s", o.Name, o.Class, rw, suffix)
	case OpMem:
		return fmt.Sprintf("%s:MEM%d:%s%s", o.Name, o.Width, rw, suffix)
	case OpImm:
		return fmt.Sprintf("%s:IMM%d%s", o.Name, o.Width, suffix)
	case OpFlags:
		return fmt.Sprintf("%s:FLAGS:r=%s,w=%s", o.Name, o.ReadFlags, o.WriteFlags)
	}
	return fmt.Sprintf("%s:%s", o.Name, o.Kind)
}

// RegOp constructs an explicit register operand.
func RegOp(name string, class RegClass, read, write bool) Operand {
	return Operand{Name: name, Kind: OpReg, Class: class, Width: class.Width(), Read: read, Write: write}
}

// MemOp constructs an explicit memory operand transferring width bits.
func MemOp(name string, width int, read, write bool) Operand {
	return Operand{Name: name, Kind: OpMem, Width: width, Read: read, Write: write}
}

// ImmOp constructs an immediate operand of the given width.
func ImmOp(name string, width int) Operand {
	return Operand{Name: name, Kind: OpImm, Width: width, Read: true}
}

// FlagsOp constructs the implicit status-flags operand with the given read
// and written flag subsets.
func FlagsOp(read, write FlagSet) Operand {
	return Operand{
		Name: "FLAGS", Kind: OpFlags, Class: ClassFlags, Width: 32,
		Read: !read.Empty(), Write: !write.Empty(),
		Implicit: true, ReadFlags: read, WriteFlags: write,
	}
}

// ImplicitRegOp constructs an implicit fixed-register operand.
func ImplicitRegOp(reg Reg, read, write bool) Operand {
	return Operand{
		Name: reg.String(), Kind: OpReg, Class: reg.Class(), Width: reg.Width(),
		Read: read, Write: write, Implicit: true, FixedReg: reg,
	}
}
