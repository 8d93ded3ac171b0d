package isa

import (
	"testing"
	"testing/quick"
)

func TestRegClassWidths(t *testing.T) {
	t.Parallel()
	cases := []struct {
		class RegClass
		width int
	}{
		{ClassGPR8, 8}, {ClassGPR16, 16}, {ClassGPR32, 32}, {ClassGPR64, 64},
		{ClassXMM, 128}, {ClassYMM, 256}, {ClassZMM, 512}, {ClassMMX, 64},
	}
	for _, c := range cases {
		if got := c.class.Width(); got != c.width {
			t.Errorf("%s.Width() = %d, want %d", c.class, got, c.width)
		}
	}
}

func TestRegClassPredicates(t *testing.T) {
	t.Parallel()
	if !ClassGPR32.IsGPR() || ClassXMM.IsGPR() {
		t.Error("IsGPR misclassifies")
	}
	if !ClassYMM.IsVector() || ClassMMX.IsVector() || ClassGPR64.IsVector() {
		t.Error("IsVector misclassifies")
	}
}

func TestParseRegClassRoundTrip(t *testing.T) {
	t.Parallel()
	for _, c := range []RegClass{ClassGPR8, ClassGPR16, ClassGPR32, ClassGPR64, ClassXMM, ClassYMM, ClassZMM, ClassMMX, ClassFlags} {
		if got := ParseRegClass(c.String()); got != c {
			t.Errorf("ParseRegClass(%q) = %v, want %v", c.String(), got, c)
		}
	}
	if ParseRegClass("bogus") != ClassNone {
		t.Error("ParseRegClass should return ClassNone for unknown names")
	}
}

func TestRegisterFamilies(t *testing.T) {
	t.Parallel()
	cases := []struct {
		reg, family Reg
	}{
		{EAX, RAX}, {AX, RAX}, {AL, RAX},
		{R10D, R10}, {R10W, R10}, {R10B, R10},
		{YMM3, XMM3}, {XMM3, XMM3},
		{MM5, MM5}, {RAX, RAX},
	}
	for _, c := range cases {
		if got := c.reg.Family(); got != c.family {
			t.Errorf("%s.Family() = %s, want %s", c.reg, got, c.family)
		}
	}
}

func TestInFamily(t *testing.T) {
	t.Parallel()
	if got := RAX.InFamily(ClassGPR8); got != AL {
		t.Errorf("RAX.InFamily(GPR8) = %s, want AL", got)
	}
	if got := EAX.InFamily(ClassGPR64); got != RAX {
		t.Errorf("EAX.InFamily(GPR64) = %s, want RAX", got)
	}
	if got := YMM7.InFamily(ClassXMM); got != XMM7 {
		t.Errorf("YMM7.InFamily(XMM) = %s, want XMM7", got)
	}
	if got := XMM2.InFamily(ClassYMM); got != YMM2 {
		t.Errorf("XMM2.InFamily(YMM) = %s, want YMM2", got)
	}
	if got := XMM0.InFamily(ClassGPR64); got != RegNone {
		t.Errorf("XMM0.InFamily(GPR64) = %s, want RegNone", got)
	}
	if got := RAX.InFamily(ClassFlags); got != RFLAGS {
		t.Errorf("RAX.InFamily(Flags) = %s, want RFLAGS", got)
	}
}

func TestRegistersOfClassConsistency(t *testing.T) {
	t.Parallel()
	for _, class := range []RegClass{ClassGPR8, ClassGPR16, ClassGPR32, ClassGPR64, ClassXMM, ClassYMM, ClassMMX} {
		regs := RegistersOfClass(class)
		if len(regs) == 0 {
			t.Errorf("no registers for class %s", class)
			continue
		}
		for _, r := range regs {
			if r.Class() != class {
				t.Errorf("register %s listed under class %s but has class %s", r, class, r.Class())
			}
		}
	}
	if len(RegistersOfClass(ClassGPR64)) != 16 {
		t.Errorf("expected 16 GPR64 registers, got %d", len(RegistersOfClass(ClassGPR64)))
	}
	if len(RegistersOfClass(ClassMMX)) != 8 {
		t.Errorf("expected 8 MMX registers, got %d", len(RegistersOfClass(ClassMMX)))
	}
}

func TestParseRegRoundTrip(t *testing.T) {
	t.Parallel()
	named := 0
	for r := Reg(1); r < Reg(NumRegs); r++ {
		if got := ParseReg(r.String()); got != r {
			t.Errorf("ParseReg(%q) = %v, want %v", r.String(), got, r)
		}
		named++
	}
	if named != len(regByName) {
		t.Errorf("%d registers are named, the lookup table holds %d", named, len(regByName))
	}
	for _, name := range []string{"NOSUCHREG", "", "NONE", "rax", "RAX ", "Reg(1)"} {
		if got := ParseReg(name); got != RegNone {
			t.Errorf("ParseReg(%q) = %v, want RegNone", name, got)
		}
	}
}

// Property: InFamily is consistent with Family — converting a register to
// any class within its family and back to the original class yields the
// original register (for GPRs), and the family of the converted register is
// the family of the original.
func TestInFamilyPropertyGPR(t *testing.T) {
	t.Parallel()
	gprs := RegistersOfClass(ClassGPR64)
	classes := []RegClass{ClassGPR8, ClassGPR16, ClassGPR32, ClassGPR64}
	f := func(regIdx, classIdx uint8) bool {
		r := gprs[int(regIdx)%len(gprs)]
		c := classes[int(classIdx)%len(classes)]
		sub := r.InFamily(c)
		if sub == RegNone {
			return false
		}
		return sub.Family() == r.Family() && sub.Class() == c && sub.InFamily(ClassGPR64) == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the family of a register always belongs to the same storage as
// the register itself (same family is idempotent).
func TestFamilyIdempotentProperty(t *testing.T) {
	t.Parallel()
	f := func(raw uint16) bool {
		r := Reg(int(raw) % NumRegs)
		return r.Family().Family() == r.Family()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
