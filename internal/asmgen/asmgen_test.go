package asmgen

import (
	"strings"
	"testing"
	"testing/quick"

	"uopsinfo/internal/isa"
	"uopsinfo/internal/xedspec"
)

func variant(t *testing.T, name string) *isa.Instr {
	t.Helper()
	in := xedspec.MustFullISA().Lookup(name)
	if in == nil {
		t.Fatalf("variant %s not found", name)
	}
	return in
}

func TestNewInstValidation(t *testing.T) {
	t.Parallel()
	add := variant(t, "ADD_R64_R64")
	if _, err := NewInst(add, RegOperand(isa.RAX)); err == nil {
		t.Error("NewInst accepted a missing operand")
	}
	if _, err := NewInst(add, RegOperand(isa.RAX), RegOperand(isa.EAX)); err == nil {
		t.Error("NewInst accepted a register of the wrong class")
	}
	if _, err := NewInst(add, RegOperand(isa.RAX), ImmOperand(1)); err == nil {
		t.Error("NewInst accepted an immediate where a register is required")
	}
	if _, err := NewInst(add, RegOperand(isa.RAX), RegOperand(isa.RBX)); err != nil {
		t.Errorf("NewInst rejected a valid instruction: %v", err)
	}

	load := variant(t, "MOV_R64_M64")
	if _, err := NewInst(load, RegOperand(isa.RAX), RegOperand(isa.RBX)); err == nil {
		t.Error("NewInst accepted a register where memory is required")
	}
	if _, err := NewInst(load, RegOperand(isa.RAX), MemOperand(isa.EBX, 0x1000)); err == nil {
		t.Error("NewInst accepted a 32-bit base register")
	}
	if _, err := NewInst(load, RegOperand(isa.RAX), MemOperand(isa.RBX, 0x1000)); err != nil {
		t.Errorf("NewInst rejected a valid load: %v", err)
	}
}

func TestIntelSyntaxPrinting(t *testing.T) {
	t.Parallel()
	add := variant(t, "ADD_R64_M64")
	inst := MustInst(add, RegOperand(isa.RAX), MemOperand(isa.RBX, 0x1000))
	if got := inst.String(); got != "ADD RAX, [RBX]" {
		t.Errorf("String() = %q, want %q", got, "ADD RAX, [RBX]")
	}
	shld := variant(t, "SHLD_R64_R64_I8")
	inst2 := MustInst(shld, RegOperand(isa.RCX), RegOperand(isa.RDX), ImmOperand(5))
	if got := inst2.String(); got != "SHLD RCX, RDX, 5" {
		t.Errorf("String() = %q, want %q", got, "SHLD RCX, RDX, 5")
	}
	cmc := variant(t, "CMC")
	if got := MustInst(cmc).String(); got != "CMC" {
		t.Errorf("String() = %q, want CMC", got)
	}
}

func TestOperandForResolvesImplicitRegisters(t *testing.T) {
	t.Parallel()
	div := variant(t, "DIV_R64")
	inst := MustInst(div, RegOperand(isa.RBX))
	raxIdx := div.OperandIndex("RAX")
	if raxIdx < 0 {
		t.Fatal("DIV_R64 has no implicit RAX operand")
	}
	if got := inst.OperandFor(raxIdx).Reg; got != isa.RAX {
		t.Errorf("OperandFor(implicit RAX) = %s, want RAX", got)
	}
	if got := inst.OperandFor(0).Reg; got != isa.RBX {
		t.Errorf("OperandFor(0) = %s, want RBX", got)
	}
	if got := inst.OperandFor(99).Reg; got != isa.RegNone {
		t.Errorf("OperandFor(out of range) = %s, want RegNone", got)
	}
}

func TestRegsUsedIncludesBasesAndImplicit(t *testing.T) {
	t.Parallel()
	add := variant(t, "ADD_R64_M64")
	inst := MustInst(add, RegOperand(isa.RAX), MemOperand(isa.RBX, 0x1000))
	used := inst.RegsUsed()
	if !used.Has(isa.RAX) || !used.Has(isa.RBX) {
		t.Errorf("RegsUsed = %v, want RAX and RBX", used)
	}
	div := variant(t, "DIV_R64")
	used = MustInst(div, RegOperand(isa.RBX)).RegsUsed()
	if !used.Has(isa.RAX) || !used.Has(isa.RDX) || !used.Has(isa.RBX) {
		t.Errorf("DIV RegsUsed = %v, want RAX, RDX and RBX", used)
	}
}

func TestSequenceHelpers(t *testing.T) {
	t.Parallel()
	add := variant(t, "ADD_R64_R64")
	a := MustInst(add, RegOperand(isa.RAX), RegOperand(isa.RBX))
	b := MustInst(add, RegOperand(isa.RCX), RegOperand(isa.RDX))
	seq := Sequence{a, b}
	if got := seq.Repeat(3); len(got) != 6 || got[0] != a || got[5] != b {
		t.Errorf("Repeat produced %d instructions", len(got))
	}
	if got := Concat(seq, Sequence{a}); len(got) != 3 {
		t.Errorf("Concat produced %d instructions", len(got))
	}
	text := seq.String()
	if strings.Count(text, "\n") != 2 {
		t.Errorf("Sequence.String should have one line per instruction:\n%s", text)
	}
}

func TestAllocatorFreshAndReserved(t *testing.T) {
	t.Parallel()
	alloc := NewAllocator(DefaultReserved...)
	seen := make(map[isa.Reg]bool)
	for i := 0; i < 12; i++ {
		r, err := alloc.Fresh(isa.ClassGPR64)
		if err != nil {
			t.Fatal(err)
		}
		if seen[r.Family()] {
			t.Fatalf("Fresh returned family %s twice", r.Family())
		}
		seen[r.Family()] = true
		for _, res := range DefaultReserved {
			if r.Family() == res.Family() {
				t.Fatalf("Fresh returned reserved register %s", r)
			}
		}
	}
	// Exhausted: falls back to reuse rather than failing.
	if _, err := alloc.Fresh(isa.ClassGPR64); err != nil {
		t.Fatalf("Fresh should fall back to reuse when exhausted: %v", err)
	}
}

func TestAllocatorAvoidAndReuse(t *testing.T) {
	t.Parallel()
	alloc := NewAllocator()
	r, err := alloc.Reuse(isa.ClassXMM, setOf(isa.XMM0))
	if err != nil {
		t.Fatal(err)
	}
	if r.Family() == isa.XMM0 {
		t.Errorf("Reuse returned avoided register %s", r)
	}
	alloc.MarkUsed(isa.XMM1)
	f, err := alloc.Fresh(isa.ClassXMM)
	if err != nil {
		t.Fatal(err)
	}
	if f == isa.XMM1 {
		t.Error("Fresh returned a register previously marked used")
	}
}

func TestMemArenaDistinctAligned(t *testing.T) {
	t.Parallel()
	arena := NewMemArena()
	a := arena.Alloc(8)
	b := arena.Alloc(64)
	c := arena.Alloc(0)
	if a == b || b == c || a == c {
		t.Error("MemArena returned duplicate addresses")
	}
	for _, addr := range []uint64{a, b, c} {
		if addr%64 != 0 {
			t.Errorf("address %#x not 64-byte aligned", addr)
		}
	}
	if b-a < 8 || c-b < 64 {
		t.Error("MemArena allocations overlap")
	}
}

// Property: Fresh never returns a reserved register and always returns a
// register of the requested class, for any interleaving of requests.
func TestAllocatorFreshProperty(t *testing.T) {
	t.Parallel()
	classes := []isa.RegClass{isa.ClassGPR64, isa.ClassGPR32, isa.ClassXMM, isa.ClassYMM, isa.ClassMMX}
	f := func(picks []uint8) bool {
		alloc := NewAllocator(DefaultReserved...)
		for _, p := range picks {
			class := classes[int(p)%len(classes)]
			r, err := alloc.Fresh(class)
			if err != nil {
				continue // class exhausted is acceptable
			}
			if r.Class() != class {
				return false
			}
			for _, res := range DefaultReserved {
				if r.Family() == res.Family() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
