package asmgen

import (
	"fmt"
	"math/rand"
	"testing"

	"uopsinfo/internal/isa"
)

// setOf returns the set of the families of regs.
func setOf(regs ...isa.Reg) RegSet {
	var s RegSet
	for _, r := range regs {
		s.Add(r)
	}
	return s
}

// refAllocator is the allocator as it was written over family-keyed maps,
// with a new avoid map on every pick. It is the reference the bitset
// Allocator must match call for call.
type refAllocator struct {
	reserved map[isa.Reg]bool
	used     map[isa.Reg]bool
}

func newRefAllocator(reserved ...isa.Reg) *refAllocator {
	a := &refAllocator{reserved: make(map[isa.Reg]bool), used: make(map[isa.Reg]bool)}
	for _, r := range reserved {
		a.reserved[r.Family()] = true
	}
	return a
}

func (a *refAllocator) Reset()             { a.used = make(map[isa.Reg]bool) }
func (a *refAllocator) MarkUsed(r isa.Reg) { a.used[r.Family()] = true }

func (a *refAllocator) Fresh(class isa.RegClass, avoid ...isa.Reg) (isa.Reg, error) {
	r, err := a.pick(class, true, avoid)
	if err != nil {
		return isa.RegNone, err
	}
	a.used[r.Family()] = true
	return r, nil
}

func (a *refAllocator) Reuse(class isa.RegClass, avoid ...isa.Reg) (isa.Reg, error) {
	return a.pick(class, false, avoid)
}

func (a *refAllocator) pick(class isa.RegClass, fresh bool, avoid []isa.Reg) (isa.Reg, error) {
	avoidFam := make(map[isa.Reg]bool, len(avoid))
	for _, r := range avoid {
		avoidFam[r.Family()] = true
	}
	for _, r := range isa.RegistersOfClass(class) {
		fam := r.Family()
		if a.reserved[fam] || avoidFam[fam] {
			continue
		}
		if fresh && a.used[fam] {
			continue
		}
		return r, nil
	}
	if fresh {
		return a.pick(class, false, avoid)
	}
	return isa.RegNone, fmt.Errorf("asmgen: no available register of class %s", class)
}

// allClasses is every register class, including those no allocator can
// serve (ClassNone, ClassZMM) and the one-register flags class.
var allClasses = []isa.RegClass{isa.ClassNone, isa.ClassGPR8, isa.ClassGPR16, isa.ClassGPR32,
	isa.ClassGPR64, isa.ClassXMM, isa.ClassYMM, isa.ClassZMM, isa.ClassMMX, isa.ClassFlags}

// TestAllocatorMatchesReference drives the bitset allocator and the map
// reference with the same seeded random MarkUsed, Fresh, Reuse and Reset
// calls, with random avoid sets over every class (split in two sets for
// the bitset allocator), and requires the same register and the same error
// from every call.
func TestAllocatorMatchesReference(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randReg := func() isa.Reg { return isa.Reg(rng.Intn(isa.NumRegs)) }
		var reserved []isa.Reg
		switch rng.Intn(3) {
		case 0:
			reserved = DefaultReserved
		case 1:
			for n := rng.Intn(24); n > 0; n-- {
				reserved = append(reserved, randReg())
			}
		}
		got, want := NewAllocator(reserved...), newRefAllocator(reserved...)
		for step := 0; step < 300; step++ {
			class := allClasses[rng.Intn(len(allClasses))]
			var avoid []isa.Reg
			for n := rng.Intn(8); n > 0; n-- {
				avoid = append(avoid, randReg())
			}
			split := rng.Intn(len(avoid) + 1)
			lo, hi := setOf(avoid[:split]...), setOf(avoid[split:]...)
			var call string
			var gr, wr isa.Reg
			var gerr, werr error
			switch op := rng.Intn(10); {
			case op == 0:
				got.Reset()
				want.Reset()
				continue
			case op < 3:
				r := randReg()
				got.MarkUsed(r)
				want.MarkUsed(r)
				continue
			case op < 7:
				call = "Fresh"
				gr, gerr = got.Fresh(class, lo, hi)
				wr, werr = want.Fresh(class, avoid...)
			default:
				call = "Reuse"
				gr, gerr = got.Reuse(class, lo, hi)
				wr, werr = want.Reuse(class, avoid...)
			}
			if gr != wr || fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("seed %d step %d: %s(%s, avoid %v) = %s, %v; reference %s, %v",
					seed, step, call, class, avoid, gr, gerr, wr, werr)
			}
		}
	}
}

// TestRegSetFamilies pins RegSet's membership to register families for
// every modelled register: adding one register adds exactly its family,
// in either word (XMM, MMX and RFLAGS sit above bit 63).
func TestRegSetFamilies(t *testing.T) {
	t.Parallel()
	for r := isa.Reg(0); r < isa.Reg(isa.NumRegs); r++ {
		s := setOf(r)
		for q := isa.Reg(0); q < isa.Reg(isa.NumRegs); q++ {
			if want := q.Family() == r.Family(); s.Has(q) != want {
				t.Fatalf("setOf(%s).Has(%s) = %v, want %v", r, q, s.Has(q), want)
			}
		}
	}
	aliases := []struct{ reg, fam isa.Reg }{
		{isa.YMM15, isa.XMM15}, {isa.EAX, isa.RAX}, {isa.R9W, isa.R9}, {isa.SIL, isa.RSI},
	}
	for _, a := range aliases {
		if !setOf(a.reg).Has(a.fam) || !setOf(a.fam).Has(a.reg) {
			t.Errorf("%s and %s are not one member", a.reg, a.fam)
		}
	}
	if s := setOf(isa.R15); s[0] == 0 || s[1] != 0 {
		t.Errorf("setOf(R15) = %#x, want a bit in the low word only", s)
	}
	for _, r := range []isa.Reg{isa.XMM0, isa.YMM7, isa.MM7, isa.RFLAGS} {
		if s := setOf(r); s[0] != 0 || s[1] == 0 {
			t.Errorf("setOf(%s) = %#x, want a bit in the high word only", r, s)
		}
	}
	u := setOf(isa.RAX).Union(setOf(isa.YMM2))
	if !u.Has(isa.AL) || !u.Has(isa.XMM2) || u.Has(isa.RBX) || u.Has(isa.XMM3) {
		t.Errorf("Union = %#x, want exactly the RAX and XMM2 families", u)
	}
}

// TestAllocatorIsAValue checks that copying an Allocator copies its state:
// a copy hands out what the original would, and neither sees the other's
// later picks.
func TestAllocatorIsAValue(t *testing.T) {
	t.Parallel()
	a := NewAllocator(DefaultReserved...)
	if _, err := a.Fresh(isa.ClassGPR64); err != nil {
		t.Fatal(err)
	}
	b := a
	ra, _ := a.Fresh(isa.ClassGPR64)
	rb, _ := b.Fresh(isa.ClassGPR64)
	if ra != rb {
		t.Errorf("a copy picked %s where the original picked %s", rb, ra)
	}
	b.Reset()
	if rc, _ := b.Fresh(isa.ClassGPR64); rc != isa.RAX {
		t.Errorf("Fresh after Reset = %s, want RAX", rc)
	}
	if rd, _ := a.Fresh(isa.ClassGPR64); rd == isa.RAX || rd == ra {
		t.Errorf("the copy's Reset reached the original: it picked %s", rd)
	}
}
