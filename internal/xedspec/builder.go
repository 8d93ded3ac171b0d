package xedspec

import (
	"fmt"
	"strconv"
	"strings"

	"uopsinfo/internal/isa"
)

// builder accumulates instruction variants. Generator functions (gen_base.go,
// gen_vector.go) use its helper methods to emit instruction variants in a
// uniform naming scheme: MNEMONIC_<OPTOKEN>[_<OPTOKEN>...], where operand
// tokens are R8/R16/R32/R64, M<width>, I<width>, XMM, YMM, MM.
type builder struct {
	instrs []*isa.Instr
	seen   map[string]bool
}

// newBuilder returns an empty builder.
func newBuilder() *builder {
	return &builder{seen: make(map[string]bool)}
}

// variantName derives the canonical variant name from a variant's mnemonic,
// prefixes and explicit operands.
func variantName(in *isa.Instr) string {
	name := in.Mnemonic
	if in.HasLock {
		name = "LOCK_" + name
	}
	if in.HasRep {
		name = "REP_" + name
	}
	for _, op := range in.ExplicitOperands() {
		name += "_" + opToken(op)
	}
	return name
}

// opToken renders the operand-type token used in variant names.
func opToken(op isa.Operand) string {
	switch {
	case op.Kind == isa.OpMem:
		return "M" + strconv.Itoa(op.Width)
	case op.Kind == isa.OpImm:
		return "I" + strconv.Itoa(op.Width)
	case op.Class == isa.ClassMMX:
		return "MM"
	case op.Class.IsGPR():
		return "R" + strconv.Itoa(op.Width)
	}
	return op.Class.String() // XMM, YMM, ZMM
}

// known returns v, what an isa parser made of name, and panics unless v
// renders back as name. The parsers map a name they do not know to a default
// (ClassNone, DomainInt, RegNone, a set without the flag); in the generator
// tables such a name is a typo, and it must fail loudly.
func known[T fmt.Stringer](what, name string, v T) T {
	if v.String() != name {
		panic(fmt.Sprintf("xedspec: unknown %s %q", what, name))
	}
	return v
}

// Operand construction helpers. The names of the explicit operands are set
// by instr.

func reg(class string, read, write bool) isa.Operand {
	return isa.RegOp("", known("register class", class, isa.ParseRegClass(class)), read, write)
}

func mem(width int, read, write bool) isa.Operand {
	return isa.MemOp("", width, read, write)
}

func imm(width int) isa.Operand {
	return isa.ImmOp("", width)
}

// flags returns the implicit status-flags operand reading and writing the
// given "+"-joined flag names ("" for none).
func flags(readSet, writeSet string) isa.Operand {
	return isa.FlagsOp(flagSet(readSet), flagSet(writeSet))
}

func flagSet(names string) isa.FlagSet {
	var set isa.FlagSet
	if names == "" {
		return set
	}
	for _, name := range strings.Split(names, "+") {
		set |= known("flag", name, isa.ParseFlagSet(name))
	}
	return set
}

// impReg returns the implicit operand of the fixed register regName, which
// must be of the given class.
func impReg(regName, class string, read, write bool) isa.Operand {
	op := isa.ImplicitRegOp(known("register", regName, isa.ParseReg(regName)), read, write)
	if c := known("register class", class, isa.ParseRegClass(class)); op.Class != c {
		panic(fmt.Sprintf("xedspec: register %s is not of class %s", regName, class))
	}
	return op
}

// gprClass maps a width in bits to the general-purpose register class name.
func gprClass(width int) string {
	switch width {
	case 8:
		return "GPR8"
	case 16:
		return "GPR16"
	case 32:
		return "GPR32"
	case 64:
		return "GPR64"
	}
	panic(fmt.Sprintf("xedspec: no GPR class of width %d", width))
}

// Attribute names of the generator tables. instr sets one isa.Instr boolean
// for each (attrDivider sets UsesDivider, attrZeroIdiom MayZeroIdiom, ...).
const (
	attrSystem      = "system"
	attrSerializing = "serializing"
	attrControlFlow = "control-flow"
	attrDivider     = "divider"
	attrNOP         = "nop"
	attrZeroIdiom   = "zero-idiom"
	attrMoveElim    = "move-elim"
	attrLock        = "lock"
	attrRep         = "rep"
)

// instr emits a single variant. Attribute names set the variant's booleans,
// the explicit operands are named op1, op2, ... in order (implicit operands
// keep their own names), and the variant is named from its mnemonic and
// explicit operands. An unknown domain or attribute and a duplicate variant
// name panic: the generator is static data, so each is a programming error.
func (b *builder) instr(mnemonic, ext, domain string, attrs []string, ops ...isa.Operand) {
	in := &isa.Instr{
		Mnemonic:  mnemonic,
		Extension: isa.Extension(ext),
		Domain:    known("domain", domain, isa.ParseDomain(domain)),
		Operands:  append([]isa.Operand(nil), ops...), // named below: not the caller's slice
	}
	for _, a := range attrs {
		switch a {
		case attrSystem:
			in.IsSystem = true
		case attrSerializing:
			in.IsSerializing = true
		case attrControlFlow:
			in.ControlFlow = true
		case attrDivider:
			in.UsesDivider = true
		case attrNOP:
			in.IsNOP = true
		case attrZeroIdiom:
			in.MayZeroIdiom = true
		case attrMoveElim:
			in.MayMoveElim = true
		case attrLock:
			in.HasLock = true
		case attrRep:
			in.HasRep = true
		default:
			panic(fmt.Sprintf("xedspec: %s: unknown attribute %q", mnemonic, a))
		}
	}
	for i := range in.ExplicitOperands() {
		in.Operands[i].Name = "op" + strconv.Itoa(i+1)
	}
	in.Name = variantName(in)
	if b.seen[in.Name] {
		panic(fmt.Sprintf("xedspec: duplicate generated variant %q", in.Name))
	}
	b.seen[in.Name] = true
	b.instrs = append(b.instrs, in)
}

// attrs is a small helper to build attribute lists.
func attrs(names ...string) []string { return names }

// Flag-set shorthands used across the generator tables. "CPAZSO" is the full
// status-flag set; shifts and rotates read the flags they conditionally
// preserve, which creates the implicit input dependency the paper discusses.
const (
	flagsAll  = "CF+PF+AF+ZF+SF+OF"
	flagsNoAF = "CF+PF+ZF+SF+OF"
	flagsNoCF = "PF+AF+ZF+SF+OF"
	flagsCF   = "CF"
	flagsCFOF = "CF+OF"
	flagsZF   = "ZF"
)
