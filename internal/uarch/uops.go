// Package uarch models the microarchitectural ground truth of Intel Core
// processor generations: the execution ports, the decomposition of every
// instruction variant into µops, the ports each µop can use, and the
// latencies between instruction operands.
//
// On real hardware this information is what the paper's tool infers by
// measurement. In this reproduction the same information parameterizes the
// cycle-level pipeline simulator (package pipesim) that stands in for the
// hardware; the inference algorithms (package core) then have to recover it
// through measurements, exactly as they would on silicon. The per-generation
// tables encode the behaviours the paper reports (AESDEC µop split on Sandy
// Bridge, the SHLD same-register fast path on Skylake, MOVQ2DQ/MOVDQ2Q port
// usage, ADC on Haswell, PBLENDVB on Nehalem, zero idioms, ...).
//
//uopslint:deterministic
package uarch

import (
	"fmt"
	"sort"
)

// ValKind distinguishes the two kinds of values a µop can read or write.
type ValKind int

// Value kinds.
const (
	// ValOperand refers to an instruction operand by its index in
	// isa.Instr.Operands.
	ValOperand ValKind = iota
	// ValTemp refers to an internal temporary value produced by one µop of
	// the instruction and consumed by another (not architecturally visible).
	ValTemp
)

// ValRef identifies a value read or written by a µop: either an instruction
// operand (by index) or an internal temporary (by id, scoped to the
// instruction).
type ValRef struct {
	Kind  ValKind
	Index int
}

// Op references operand index i of the instruction.
func Op(i int) ValRef { return ValRef{Kind: ValOperand, Index: i} }

// Tmp references internal temporary t of the instruction.
func Tmp(t int) ValRef { return ValRef{Kind: ValTemp, Index: t} }

// String renders the reference for debugging.
func (v ValRef) String() string {
	if v.Kind == ValOperand {
		return fmt.Sprintf("op[%d]", v.Index)
	}
	return fmt.Sprintf("tmp[%d]", v.Index)
}

// Uop describes one micro-operation of an instruction variant.
type Uop struct {
	// Ports lists the execution ports whose functional units can execute
	// this µop. An empty list means the µop does not use an execution port
	// (NOPs, eliminated moves, zero idioms handled at rename).
	Ports []int

	// Latency is the number of cycles from dispatch until the µop's results
	// are ready. Individual written values can override it via WriteLat.
	Latency int

	// Reads and Writes list the values the µop consumes and produces.
	Reads  []ValRef
	Writes []ValRef

	// WriteLat optionally overrides Latency per written value; it is
	// parallel to Writes, with 0 meaning "use Latency".
	WriteLat []int

	// Load marks a load µop: the simulator adds the microarchitecture's L1
	// load latency to Latency.
	Load bool

	// StoreAddr and StoreData mark the two halves of a store.
	StoreAddr bool
	StoreData bool

	// Divider marks µops that occupy the non-fully-pipelined divider unit.
	// DivOccupancy is the number of cycles the divider stays busy.
	Divider      bool
	DivOccupancy int
}

// LatencyTo returns the latency from dispatch to the i-th written value.
func (u *Uop) LatencyTo(i int) int {
	if i < len(u.WriteLat) && u.WriteLat[i] != 0 {
		return u.WriteLat[i]
	}
	return u.Latency
}

// InstrPerf is the ground-truth performance description of one instruction
// variant on one microarchitecture generation.
type InstrPerf struct {
	// Uops is the µop decomposition. µops may communicate through
	// temporaries, which is how per-operand-pair latency differences arise.
	Uops []Uop

	// Divider indicates that the latency and throughput depend on operand
	// values (division-like instructions, Section 5.2.5). LatencyLowValues
	// and DivOccupancyLowValues describe the behaviour for "fast" operand
	// values; the Uops themselves describe the "slow" (worst-case) values.
	Divider                bool
	LatencyLowValues       int
	DivOccupancyLowValues  int
	DivOccupancyHighValues int

	// ZeroIdiom marks variants that are dependency-breaking when both
	// explicit register operands name the same register. ZeroIdiomElim
	// additionally removes the µop at rename (no execution port needed).
	ZeroIdiom     bool
	ZeroIdiomElim bool

	// MoveElim marks register-to-register moves that the rename stage can
	// eliminate (move elimination, Section 3.1).
	MoveElim bool

	// SameRegOverride, when non-nil, replaces the performance description
	// when all explicit register operands use the same register (e.g. SHLD
	// on Skylake, Section 7.3.2).
	SameRegOverride *InstrPerf
}

// NumUops returns the number of µops of the variant.
func (p *InstrPerf) NumUops() int { return len(p.Uops) }

// MaxLatency returns the maximum µop latency in the decomposition (a lower
// bound on the maximum operand-pair latency, used to scale blocking-instruction
// repetition counts).
func (p *InstrPerf) MaxLatency() int {
	max := 1
	for i := range p.Uops {
		u := &p.Uops[i]
		l := u.Latency
		for j := range u.Writes {
			if lt := u.LatencyTo(j); lt > l {
				l = lt
			}
		}
		if u.Load {
			l += 5 // conservative load-latency allowance
		}
		if l > max {
			max = l
		}
	}
	// Chain the µop latencies: a conservative upper bound on the critical
	// path is the sum over µops.
	sum := 0
	for i := range p.Uops {
		sum += p.Uops[i].Latency
	}
	if sum > max {
		max = sum
	}
	return max
}

// PortUsage aggregates the µop decomposition into the paper's port-usage
// notation: a map from port combination (as a canonical string such as
// "015") to the number of µops bound to exactly that combination. µops
// without an execution port are not included.
func (p *InstrPerf) PortUsage() map[string]int {
	usage := make(map[string]int)
	for i := range p.Uops {
		u := &p.Uops[i]
		if len(u.Ports) == 0 {
			continue
		}
		usage[PortComboKey(u.Ports)]++
	}
	return usage
}

// PortComboKey renders a port set as a canonical string key, e.g. [5 0 1]
// becomes "015".
func PortComboKey(ports []int) string {
	present := make(map[int]bool, len(ports))
	maxPort := 0
	for _, p := range ports {
		present[p] = true
		if p > maxPort {
			maxPort = p
		}
	}
	key := ""
	for p := 0; p <= maxPort; p++ {
		if present[p] {
			key += fmt.Sprintf("%d", p)
		}
	}
	return key
}

// FormatPortUsage renders a port-usage map in the paper's notation, e.g.
// "1*p0+1*p015".
func FormatPortUsage(usage map[string]int) string {
	if len(usage) == 0 {
		return "0"
	}
	keys := make([]string, 0, len(usage))
	for k := range usage {
		keys = append(keys, k)
	}
	// Sort by combination size, then lexicographically, mirroring the
	// paper's presentation (smaller combinations first).
	sort.Slice(keys, func(i, j int) bool {
		if len(keys[i]) != len(keys[j]) {
			return len(keys[i]) < len(keys[j])
		}
		return keys[i] < keys[j]
	})
	out := ""
	for i, k := range keys {
		if i > 0 {
			out += "+"
		}
		out += fmt.Sprintf("%d*p%s", usage[k], k)
	}
	return out
}

// Convenience builders used by the assignment rules -------------------------

// uop builds a standard single-latency µop.
func uop(ports []int, lat int, reads []ValRef, writes []ValRef) Uop {
	return Uop{Ports: ports, Latency: lat, Reads: reads, Writes: writes}
}

// loadUop builds a load µop reading the address register operand (addrOp) and
// the memory operand (memOp), producing the temporary dst.
func loadUop(ports []int, memOp int, dst ValRef) Uop {
	return Uop{Ports: ports, Latency: 0, Load: true, Reads: []ValRef{Op(memOp)}, Writes: []ValRef{dst}}
}

// storeAddrUop builds the store-address µop for memory operand memOp.
func storeAddrUop(ports []int, memOp int) Uop {
	return Uop{Ports: ports, Latency: 1, StoreAddr: true, Reads: []ValRef{Op(memOp)}}
}

// storeDataUop builds the store-data µop writing the value src to memory
// operand memOp.
func storeDataUop(ports []int, memOp int, src ...ValRef) Uop {
	return Uop{Ports: ports, Latency: 1, StoreData: true, Reads: src, Writes: []ValRef{Op(memOp)}}
}

// refs is shorthand for a list of value references.
func refs(vs ...ValRef) []ValRef { return vs }
