// Package asmgen represents concrete assembler instructions (an instruction
// variant together with concrete registers, memory addresses and immediate
// values) and provides the register/memory allocation helpers the
// microbenchmark generator needs: picking registers that do or do not
// introduce dependencies, building dependency chains, and printing Intel
// syntax.
//
//uopslint:deterministic
package asmgen

import (
	"fmt"
	"strings"

	"uopsinfo/internal/isa"
)

// Mem is a concrete memory operand of the form [base] (the paper only tests
// base-register addressing, Section 8). Addr is the virtual address the base
// register points to; the simulator uses it to track memory dependencies, and
// the generator chooses distinct addresses for operands that must be
// independent.
type Mem struct {
	Base isa.Reg
	Addr uint64
}

// Operand is a concrete value for one explicit operand of an instruction.
// It holds its memory operand by value, so building an instance allocates
// its operand slice and nothing per operand; IsMem tells a memory operand.
type Operand struct {
	Reg    isa.Reg
	Mem    Mem
	Imm    int64
	HasImm bool
}

// RegOperand returns a register operand.
func RegOperand(r isa.Reg) Operand { return Operand{Reg: r} }

// MemOperand returns a memory operand. base must be a register: a memory
// operand always names its base register, which is how IsMem tells it.
func MemOperand(base isa.Reg, addr uint64) Operand { return Operand{Mem: Mem{Base: base, Addr: addr}} }

// IsMem reports whether o is a memory operand, that is, names a base
// register.
func (o Operand) IsMem() bool { return o.Mem.Base != isa.RegNone }

// ImmOperand returns an immediate operand.
func ImmOperand(v int64) Operand { return Operand{Imm: v, HasImm: true} }

// Inst is one concrete assembler instruction.
type Inst struct {
	Variant *isa.Instr
	// Ops holds the concrete values of the explicit operands, parallel to
	// Variant.ExplicitOperands(). Implicit operands are fixed by the
	// variant.
	Ops []Operand
}

// NewInst builds a concrete instruction and validates that the operand count
// and kinds match the variant.
func NewInst(variant *isa.Instr, ops ...Operand) (*Inst, error) {
	expl := variant.ExplicitOperands()
	if len(ops) != len(expl) {
		return nil, fmt.Errorf("asmgen: %s: got %d operands, want %d", variant.Name, len(ops), len(expl))
	}
	for i, spec := range expl {
		op := ops[i]
		switch spec.Kind {
		case isa.OpReg:
			if op.Reg == isa.RegNone {
				return nil, fmt.Errorf("asmgen: %s: operand %d must be a register", variant.Name, i+1)
			}
			if op.Reg.Class() != spec.Class {
				return nil, fmt.Errorf("asmgen: %s: operand %d: register %s has class %s, want %s",
					variant.Name, i+1, op.Reg, op.Reg.Class(), spec.Class)
			}
		case isa.OpMem:
			if !op.IsMem() {
				return nil, fmt.Errorf("asmgen: %s: operand %d must be a memory operand", variant.Name, i+1)
			}
			if op.Mem.Base.Class() != isa.ClassGPR64 {
				return nil, fmt.Errorf("asmgen: %s: operand %d: base register %s must be a 64-bit GPR",
					variant.Name, i+1, op.Mem.Base)
			}
		case isa.OpImm:
			if !op.HasImm {
				return nil, fmt.Errorf("asmgen: %s: operand %d must be an immediate", variant.Name, i+1)
			}
		}
	}
	return &Inst{Variant: variant, Ops: ops}, nil
}

// MustInst is like NewInst but panics on error; for statically-known shapes.
func MustInst(variant *isa.Instr, ops ...Operand) *Inst {
	in, err := NewInst(variant, ops...)
	if err != nil {
		panic(err)
	}
	return in
}

// String renders the instruction in Intel syntax, e.g. "ADD RAX, [RBX]".
func (in *Inst) String() string {
	var parts []string
	expl := in.Variant.ExplicitOperands()
	for i, spec := range expl {
		op := in.Ops[i]
		switch spec.Kind {
		case isa.OpReg:
			parts = append(parts, op.Reg.String())
		case isa.OpMem:
			parts = append(parts, fmt.Sprintf("[%s]", op.Mem.Base))
		case isa.OpImm:
			parts = append(parts, fmt.Sprintf("%d", op.Imm))
		}
	}
	if len(parts) == 0 {
		return in.Variant.Mnemonic
	}
	return in.Variant.Mnemonic + " " + strings.Join(parts, ", ")
}

// OperandFor returns the concrete operand for the operand at index opIdx in
// Variant.Operands (counting implicit operands). Implicit register operands
// are resolved to their fixed register; the flags operand and immediates
// return a zero Operand.
func (in *Inst) OperandFor(opIdx int) Operand {
	ops := in.Variant.Operands
	if opIdx < 0 || opIdx >= len(ops) {
		return Operand{}
	}
	spec := ops[opIdx]
	if spec.Implicit {
		if spec.FixedReg != isa.RegNone {
			return Operand{Reg: spec.FixedReg}
		}
		return Operand{}
	}
	// Map the full-operand index to the explicit-operand index.
	explIdx := 0
	for i := 0; i < opIdx; i++ {
		if !ops[i].Implicit {
			explIdx++
		}
	}
	if explIdx < len(in.Ops) {
		return in.Ops[explIdx]
	}
	return Operand{}
}

// RegsUsed returns the set of register families referenced by the
// instruction's concrete operands (explicit and implicit), including memory
// base registers.
func (in *Inst) RegsUsed() RegSet {
	var used RegSet
	for i, spec := range in.Variant.Operands {
		op := in.OperandFor(i)
		switch {
		case spec.Kind == isa.OpReg && op.Reg != isa.RegNone:
			used.Add(op.Reg)
		case spec.Kind == isa.OpMem && op.IsMem():
			used.Add(op.Mem.Base)
		}
	}
	return used
}

// Sequence is a list of concrete instructions (the body of a
// microbenchmark).
type Sequence []*Inst

// String renders the sequence one instruction per line.
func (s Sequence) String() string {
	var b strings.Builder
	for _, in := range s {
		b.WriteString(in.String())
		b.WriteString("\n")
	}
	return b.String()
}

// Repeat returns the sequence concatenated n times.
func (s Sequence) Repeat(n int) Sequence {
	out := make(Sequence, 0, len(s)*n)
	for i := 0; i < n; i++ {
		out = append(out, s...)
	}
	return out
}

// Concat concatenates sequences.
func Concat(seqs ...Sequence) Sequence {
	var out Sequence
	for _, s := range seqs {
		out = append(out, s...)
	}
	return out
}
