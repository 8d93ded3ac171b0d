package isa_test

import (
	"reflect"
	"strings"
	"testing"

	"uopsinfo/internal/isa"
	"uopsinfo/internal/uarch"
)

// filterExplicit is the reference: every operand not marked implicit, in
// order.
func filterExplicit(in *isa.Instr) []isa.Operand {
	var out []isa.Operand
	for _, op := range in.Operands {
		if !op.Implicit {
			out = append(out, op)
		}
	}
	return out
}

// TestExplicitOperandsMatchesFilter checks every variant of every generation:
// the leading run ExplicitOperands returns is exactly the explicit operands.
func TestExplicitOperandsMatchesFilter(t *testing.T) {
	t.Parallel()
	for _, arch := range uarch.All() {
		for _, in := range arch.InstrSet().Instrs() {
			got, want := in.ExplicitOperands(), filterExplicit(in)
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("%s %s: ExplicitOperands = %v, want %v", arch.Name(), in.Name, got, want)
			}
		}
	}
}

func TestExplicitOperandsAliasesWithoutAllocating(t *testing.T) {
	t.Parallel()
	in := uarch.Get(uarch.Skylake).InstrSet().Lookup("ADD_R64_R64")
	if allocs := testing.AllocsPerRun(100, func() { _ = in.ExplicitOperands() }); allocs != 0 {
		t.Errorf("ExplicitOperands allocates %.1f times per call, want 0", allocs)
	}
	before := append([]isa.Operand(nil), in.Operands...)
	expl := in.ExplicitOperands()
	if len(expl) == len(in.Operands) {
		t.Fatalf("%s has no implicit operand to overwrite", in.Name)
	}
	_ = append(expl, isa.ImmOp("op9", 8))
	if !reflect.DeepEqual(in.Operands, before) {
		t.Errorf("appending to ExplicitOperands changed Operands: %v, was %v", in.Operands, before)
	}
}

func TestNewSetRejectsExplicitAfterImplicit(t *testing.T) {
	t.Parallel()
	bad := &isa.Instr{Name: "BAD_R64", Mnemonic: "BAD", Operands: []isa.Operand{
		isa.FlagsOp(isa.FlagSetNone, isa.FlagSetAll),
		isa.RegOp("op1", isa.ClassGPR64, true, true),
	}}
	_, err := isa.NewSet([]*isa.Instr{bad})
	if err == nil || !strings.Contains(err.Error(), "op1") {
		t.Fatalf("NewSet(misordered variant) error = %v, want one naming op1", err)
	}
}
