package asmgen

import (
	"fmt"

	"uopsinfo/internal/isa"
)

// DefaultReserved is the set of registers the measurement harness keeps for
// itself (stack and base pointer, plus the two registers Algorithm 2 reserves
// for the saved state and the performance-counter data). Benchmark code must
// not use them.
var DefaultReserved = []isa.Reg{isa.RSP, isa.RBP, isa.R14, isa.R15}

// RegSet is a set of register families: adding a register adds its family,
// so EAX and RAX are one member, as are YMM3 and XMM3. One bit per register
// number; two words hold every register isa models.
type RegSet [2]uint64

// Two words must cover isa.NumRegs (a compile error otherwise).
const _ = uint(2*64 - isa.NumRegs)

// Add adds the family of r to the set.
func (s *RegSet) Add(r isa.Reg) {
	f := r.Family()
	s[f>>6] |= 1 << (uint(f) & 63)
}

// Has reports whether the family of r is in the set.
func (s RegSet) Has(r isa.Reg) bool {
	f := r.Family()
	return s[f>>6]&(1<<(uint(f)&63)) != 0
}

// Union returns the families in s or in o.
func (s RegSet) Union(o RegSet) RegSet { return RegSet{s[0] | o[0], s[1] | o[1]} }

// Allocator hands out architectural registers for benchmark code while
// avoiding unwanted dependencies: registers can be requested "fresh" (never
// handed out before, to guarantee independence between instructions) or
// "reused" (any non-reserved register not explicitly avoided). An Allocator
// is a value; copying one copies its state.
type Allocator struct {
	reserved RegSet
	used     RegSet
}

// NewAllocator returns an allocator with the given reserved registers (in
// addition to nothing else). Pass DefaultReserved... for benchmark code.
func NewAllocator(reserved ...isa.Reg) Allocator {
	var a Allocator
	for _, r := range reserved {
		a.reserved.Add(r)
	}
	return a
}

// Reset forgets which registers have been handed out (but keeps the reserved
// set).
func (a *Allocator) Reset() { a.used = RegSet{} }

// MarkUsed records that the family of r has been handed out, so Fresh will
// not return it again.
func (a *Allocator) MarkUsed(r isa.Reg) { a.used.Add(r) }

// Fresh returns a register of the given class whose family has not been
// handed out before and is in none of the avoid sets. The returned
// register's family is recorded as used.
func (a *Allocator) Fresh(class isa.RegClass, avoid ...RegSet) (isa.Reg, error) {
	r, err := a.pick(class, true, union(avoid))
	if err != nil {
		return isa.RegNone, err
	}
	a.used.Add(r)
	return r, nil
}

// Reuse returns a register of the given class that is not reserved and whose
// family is in none of the avoid sets; it may have been handed out before.
func (a *Allocator) Reuse(class isa.RegClass, avoid ...RegSet) (isa.Reg, error) {
	return a.pick(class, false, union(avoid))
}

func (a *Allocator) pick(class isa.RegClass, fresh bool, avoid RegSet) (isa.Reg, error) {
	skip := a.reserved.Union(avoid)
	if fresh {
		skip = skip.Union(a.used)
	}
	for _, r := range isa.RegistersOfClass(class) {
		if !skip.Has(r) {
			return r, nil
		}
	}
	if fresh {
		// Fall back to reuse if the class is exhausted; independence cannot
		// be guaranteed, but a valid instruction can still be produced.
		return a.pick(class, false, avoid)
	}
	return isa.RegNone, fmt.Errorf("asmgen: no available register of class %s", class)
}

// union returns the families in any of the sets.
func union(sets []RegSet) RegSet {
	var u RegSet
	for _, s := range sets {
		u = u.Union(s)
	}
	return u
}

// MemArena hands out distinct virtual addresses for memory operands. All
// addresses are 64-byte aligned so that distinct allocations never share a
// cache line.
type MemArena struct {
	next uint64
}

// NewMemArena returns an arena starting at a fixed base address.
func NewMemArena() *MemArena {
	return &MemArena{next: 0x100000}
}

// Alloc returns a fresh address for an operand of the given size in bytes.
func (m *MemArena) Alloc(size int) uint64 {
	if size <= 0 {
		size = 8
	}
	addr := m.next
	blocks := uint64((size + 63) / 64)
	m.next += blocks * 64
	return addr
}
