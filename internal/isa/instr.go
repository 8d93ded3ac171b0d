package isa

import (
	"fmt"
	"sort"
	"strings"
)

// Extension names the ISA extension an instruction variant belongs to. The
// extension matters for the SSE/AVX transition-penalty handling: blocking
// instructions for SSE instructions must not be AVX instructions and vice
// versa (Section 5.1.1).
type Extension string

// Extensions used by the generated instruction set.
const (
	ExtBase   Extension = "BASE"
	ExtBMI    Extension = "BMI"
	ExtMMX    Extension = "MMX"
	ExtSSE    Extension = "SSE"
	ExtSSE2   Extension = "SSE2"
	ExtSSE3   Extension = "SSE3"
	ExtSSSE3  Extension = "SSSE3"
	ExtSSE41  Extension = "SSE4.1"
	ExtSSE42  Extension = "SSE4.2"
	ExtAES    Extension = "AES"
	ExtCLMUL  Extension = "CLMUL"
	ExtAVX    Extension = "AVX"
	ExtAVX2   Extension = "AVX2"
	ExtF16C   Extension = "F16C"
	ExtFMA    Extension = "FMA"
	ExtSystem Extension = "SYSTEM"
)

// IsAVX reports whether instructions of this extension use the VEX-encoded
// AVX register state (relevant for SSE/AVX transition penalties).
func (e Extension) IsAVX() bool {
	switch e {
	case ExtAVX, ExtAVX2, ExtFMA, ExtF16C:
		return true
	}
	return false
}

// IsSSE reports whether instructions of this extension use legacy-encoded SSE
// state.
func (e Extension) IsSSE() bool {
	switch e {
	case ExtSSE, ExtSSE2, ExtSSE3, ExtSSSE3, ExtSSE41, ExtSSE42, ExtAES, ExtCLMUL:
		return true
	}
	return false
}

// Domain describes the execution domain of an instruction's data path. A
// value produced in one domain and consumed in another incurs a bypass delay
// on some microarchitectures (Section 5.2.1).
type Domain int

// Execution domains.
const (
	DomainInt    Domain = iota // general-purpose integer
	DomainVecInt               // vector integer
	DomainFP                   // vector floating point
)

var domainNames = [...]string{"INT", "VECINT", "FP"}

func (d Domain) String() string {
	if d >= 0 && int(d) < len(domainNames) {
		return domainNames[d]
	}
	return fmt.Sprintf("Domain(%d)", int(d))
}

// ParseDomain converts a domain name back into a Domain.
func ParseDomain(s string) Domain {
	for i, n := range domainNames {
		if n == s {
			return Domain(i)
		}
	}
	return DomainInt
}

// Instr describes one instruction variant: a mnemonic together with a fixed
// list of operand types and widths. Different operand-type combinations of
// the same mnemonic are distinct variants (e.g. "ADD_R64_R64", "ADD_R64_M64",
// "ADD_R64_I32"), mirroring the per-variant granularity of the paper.
type Instr struct {
	// Name uniquely identifies the variant, e.g. "ADD_R64_R64".
	Name string

	// Mnemonic is the assembler mnemonic, e.g. "ADD".
	Mnemonic string

	// Extension is the ISA extension the variant belongs to.
	Extension Extension

	// Domain is the execution domain of the variant's data path.
	Domain Domain

	// Operands lists explicit operands first (in assembler order), followed
	// by implicit operands.
	Operands []Operand

	// Attributes.
	IsSystem      bool // system instruction (excluded from blocking candidates)
	IsSerializing bool // serializing instruction (e.g. CPUID, LFENCE)
	ControlFlow   bool // may change control flow based on a register value
	UsesDivider   bool // uses the non-fully-pipelined divider unit
	IsNOP         bool // no architectural effect (NOP family)
	MayZeroIdiom  bool // is a zero idiom when both register operands are equal
	MayMoveElim   bool // register-to-register move eligible for move elimination
	HasLock       bool // has a LOCK prefix
	HasRep        bool // has a REP prefix (variable µop count)
}

// ExplicitOperands returns the operands that appear in the assembler syntax.
// They lead Operands (NewSet rejects a variant that breaks that order), so
// the result is the leading run of Operands itself, with its capacity capped:
// it allocates nothing, and appending to it copies instead of overwriting the
// implicit operands. Callers must not modify its elements.
func (in *Instr) ExplicitOperands() []Operand {
	n := 0
	for n < len(in.Operands) && !in.Operands[n].Implicit {
		n++
	}
	return in.Operands[:n:n]
}

// ImplicitOperands returns the operands that do not appear in the assembler
// syntax (status flags, fixed registers).
func (in *Instr) ImplicitOperands() []Operand {
	out := make([]Operand, 0, len(in.Operands))
	for _, op := range in.Operands {
		if op.Implicit {
			out = append(out, op)
		}
	}
	return out
}

// SourceOperands returns the indices (into Operands) of all operands read by
// the instruction.
func (in *Instr) SourceOperands() []int {
	var out []int
	for i, op := range in.Operands {
		if op.Read {
			out = append(out, i)
		}
	}
	return out
}

// DestOperands returns the indices (into Operands) of all operands written by
// the instruction.
func (in *Instr) DestOperands() []int {
	var out []int
	for i, op := range in.Operands {
		if op.Write {
			out = append(out, i)
		}
	}
	return out
}

// OperandIndex returns the index of the operand with the given name, or -1.
func (in *Instr) OperandIndex(name string) int {
	for i, op := range in.Operands {
		if op.Name == name {
			return i
		}
	}
	return -1
}

// HasMemOperand reports whether any operand is a memory operand.
func (in *Instr) HasMemOperand() bool {
	for _, op := range in.Operands {
		if op.Kind == OpMem {
			return true
		}
	}
	return false
}

// ReadsMemory reports whether the instruction reads from memory.
func (in *Instr) ReadsMemory() bool {
	for _, op := range in.Operands {
		if op.Kind == OpMem && op.Read {
			return true
		}
	}
	return false
}

// WritesMemory reports whether the instruction writes to memory.
func (in *Instr) WritesMemory() bool {
	for _, op := range in.Operands {
		if op.Kind == OpMem && op.Write {
			return true
		}
	}
	return false
}

// ReadsFlags reports whether the instruction reads any status flag.
func (in *Instr) ReadsFlags() bool {
	for _, op := range in.Operands {
		if op.Kind == OpFlags && !op.ReadFlags.Empty() {
			return true
		}
	}
	return false
}

// WritesFlags reports whether the instruction writes any status flag.
func (in *Instr) WritesFlags() bool {
	for _, op := range in.Operands {
		if op.Kind == OpFlags && !op.WriteFlags.Empty() {
			return true
		}
	}
	return false
}

// String returns the variant name.
func (in *Instr) String() string { return in.Name }

// Signature renders a human-readable operand signature such as
// "ADD R64, R64 [flags:w]".
func (in *Instr) Signature() string {
	var parts []string
	for _, op := range in.ExplicitOperands() {
		switch op.Kind {
		case OpReg:
			parts = append(parts, op.Class.String())
		case OpMem:
			parts = append(parts, fmt.Sprintf("M%d", op.Width))
		case OpImm:
			parts = append(parts, fmt.Sprintf("I%d", op.Width))
		}
	}
	s := in.Mnemonic
	if len(parts) > 0 {
		s += " " + strings.Join(parts, ", ")
	}
	var impl []string
	for _, op := range in.ImplicitOperands() {
		impl = append(impl, op.String())
	}
	if len(impl) > 0 {
		s += " {" + strings.Join(impl, "; ") + "}"
	}
	return s
}

// Set is a collection of instruction variants with fast name lookup.
type Set struct {
	instrs []*Instr
	byName map[string]*Instr
}

// NewSet builds a Set from the given variants. Duplicate names are rejected,
// and so is a variant with an explicit operand after an implicit one (see
// Instr.Operands).
func NewSet(instrs []*Instr) (*Set, error) {
	s := &Set{byName: make(map[string]*Instr, len(instrs))}
	for _, in := range instrs {
		if in.Name == "" {
			return nil, fmt.Errorf("isa: instruction with empty name (mnemonic %q)", in.Mnemonic)
		}
		if _, dup := s.byName[in.Name]; dup {
			return nil, fmt.Errorf("isa: duplicate instruction variant %q", in.Name)
		}
		for _, op := range in.Operands[len(in.ExplicitOperands()):] {
			if !op.Implicit {
				return nil, fmt.Errorf("isa: %s: explicit operand %s follows an implicit operand", in.Name, op.Name)
			}
		}
		s.byName[in.Name] = in
		s.instrs = append(s.instrs, in)
	}
	return s, nil
}

// MustNewSet is like NewSet but panics on error; intended for
// statically-known instruction lists.
func MustNewSet(instrs []*Instr) *Set {
	s, err := NewSet(instrs)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of variants in the set.
func (s *Set) Len() int { return len(s.instrs) }

// Instrs returns all variants in insertion order. The slice must not be
// modified.
func (s *Set) Instrs() []*Instr { return s.instrs }

// Lookup returns the variant with the given name, or nil.
func (s *Set) Lookup(name string) *Instr { return s.byName[name] }

// ByMnemonic returns all variants with the given mnemonic.
func (s *Set) ByMnemonic(mnemonic string) []*Instr {
	var out []*Instr
	for _, in := range s.instrs {
		if in.Mnemonic == mnemonic {
			out = append(out, in)
		}
	}
	return out
}

// Filter returns a new Set containing the variants for which keep returns
// true.
func (s *Set) Filter(keep func(*Instr) bool) *Set {
	var kept []*Instr
	for _, in := range s.instrs {
		if keep(in) {
			kept = append(kept, in)
		}
	}
	return MustNewSet(kept)
}

// Names returns the sorted list of variant names.
func (s *Set) Names() []string {
	names := make([]string, 0, len(s.instrs))
	for _, in := range s.instrs {
		names = append(names, in.Name)
	}
	sort.Strings(names)
	return names
}

// Mnemonics returns the sorted list of distinct mnemonics in the set.
func (s *Set) Mnemonics() []string {
	seen := make(map[string]bool)
	var out []string
	for _, in := range s.instrs {
		if !seen[in.Mnemonic] {
			seen[in.Mnemonic] = true
			out = append(out, in.Mnemonic)
		}
	}
	sort.Strings(out)
	return out
}
