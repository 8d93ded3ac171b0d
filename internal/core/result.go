// Package core implements the paper's primary contribution: the algorithms
// that automatically generate microbenchmarks and infer, for every
// instruction variant of a microarchitecture,
//
//   - the port usage (Section 5.1, Algorithm 1, based on blocking
//     instructions),
//   - the latency for every pair of source and destination operands
//     (Section 5.2, based on automatically constructed dependency chains),
//   - the throughput, both measured (Definition 2) and computed from the
//     port usage via the min-max-load optimization problem (Definition 1,
//     Section 5.3).
//
// The algorithms only interact with the processor through the measurement
// harness (package measure), i.e. through "run this code sequence and report
// cycles and µops per port" — the same interface they use on real hardware.
//
//uopslint:deterministic
package core

import (
	"maps"
	"sort"
	"strconv"

	"uopsinfo/internal/uarch"
)

// PortUsage is the inferred port usage of an instruction: the number of µops
// bound to each port combination.
type PortUsage map[uarch.PortSet]float64

// Keys returns the port combinations in uarch.PortSet.Compare order, the
// paper's presentation order. Every iteration that feeds ordered output or
// floating-point accumulation goes through Keys: map iteration order must
// never reach a result.
func (pu PortUsage) Keys() []uarch.PortSet {
	return uarch.AppendSorted(make([]uarch.PortSet, 0, len(pu)), pu)
}

// TotalUops sums the µops over all combinations (in Keys order: float
// addition is not associative, so the sum must not depend on map iteration
// order).
func (pu PortUsage) TotalUops() float64 {
	sum := 0.0
	for _, k := range pu.Keys() {
		sum += pu[k]
	}
	return sum
}

// String renders the usage in the paper's notation, e.g. "1*p0+1*p015".
func (pu PortUsage) String() string {
	if len(pu) == 0 {
		return "0"
	}
	// A usage has a few keys (at most 5 over the ISA) and a short text,
	// which the stack arrays hold; append spills larger ones to the heap.
	var keys [16]uarch.PortSet
	var text [64]byte
	b := text[:0]
	for i, k := range uarch.AppendSorted(keys[:0], pu) {
		if i > 0 {
			b = append(b, '+')
		}
		n := pu[k]
		if n == float64(int(n)) {
			b = strconv.AppendInt(b, int64(n), 10)
		} else {
			b = strconv.AppendFloat(b, n, 'f', 2, 64)
		}
		b = append(b, "*p"...)
		b = k.AppendKey(b)
	}
	return string(b)
}

// Round returns the usage with each µop count rounded to the nearest
// integer, leaving out combinations that round to no µop.
func (pu PortUsage) Round() uarch.Usage {
	out := make(uarch.Usage, len(pu))
	for k, v := range pu {
		if n := int(v + 0.5); n > 0 {
			out[k] = n
		}
	}
	return out
}

// Equal reports whether two port usages are the same after rounding µop
// counts to the nearest integer.
func (pu PortUsage) Equal(other PortUsage) bool {
	return maps.Equal(pu.Round(), other.Round())
}

// GroundTruthUsage converts a uarch.InstrPerf µop decomposition into the
// PortUsage representation, for comparisons in tests and reports.
func GroundTruthUsage(perf *uarch.InstrPerf) PortUsage {
	pu := make(PortUsage)
	for k, n := range perf.PortUsage() {
		pu[k] = float64(n)
	}
	return pu
}

// OperandPairLatency is the measured latency from one source operand to one
// destination operand of an instruction (the paper's lat(s_i, d_j)).
type OperandPairLatency struct {
	// Source and Dest are operand indices into isa.Instr.Operands.
	Source int
	Dest   int
	// SourceName and DestName are the operand names, for reporting.
	SourceName string
	DestName   string
	// Cycles is the measured latency.
	Cycles float64
	// UpperBound marks measurements where no chain instruction with a known
	// latency exists (e.g. between registers of different types, Section
	// 5.2.1); Cycles is then an upper bound on the true latency.
	UpperBound bool
	// SameRegister marks the additional measurement where the same register
	// is used for both operands (Section 5.2.1).
	SameRegister bool
	// FastValueCycles is the latency with operand values chosen for the fast
	// case; it is only set for divider-based instructions (Section 5.2.5).
	FastValueCycles float64
	// Notes records how the chain was constructed.
	Notes string
}

// LatencyResult collects all measured operand-pair latencies of one
// instruction.
type LatencyResult struct {
	Pairs []OperandPairLatency
}

// MaxLatency returns the maximum measured latency over all pairs (excluding
// same-register measurements), which Algorithm 1 uses to size the blocking
// sequences.
func (l *LatencyResult) MaxLatency() float64 {
	max := 0.0
	for _, p := range l.Pairs {
		if p.SameRegister {
			continue
		}
		if p.Cycles > max {
			max = p.Cycles
		}
	}
	return max
}

// Lookup returns the latency entry for the given operand pair, preferring the
// distinct-register measurement.
func (l *LatencyResult) Lookup(source, dest int) (OperandPairLatency, bool) {
	for _, p := range l.Pairs {
		if p.Source == source && p.Dest == dest && !p.SameRegister {
			return p, true
		}
	}
	for _, p := range l.Pairs {
		if p.Source == source && p.Dest == dest {
			return p, true
		}
	}
	return OperandPairLatency{}, false
}

// ThroughputResult holds the throughput of an instruction in cycles per
// instruction under both definitions discussed in Section 4.2.
type ThroughputResult struct {
	// Measured is the throughput according to Definition 2 (Fog): the
	// average cycles per instruction of the best sequence of independent
	// instances found.
	Measured float64
	// MeasuredSequenceLength is the length of the independent sequence that
	// achieved Measured (1, 2, 4 or 8).
	MeasuredSequenceLength int
	// WithDepBreaking is the best throughput achieved when
	// dependency-breaking instructions were added for implicit
	// read-modify-write operands (0 if not applicable).
	WithDepBreaking float64
	// Computed is the throughput according to Definition 1 (Intel), computed
	// from the port usage by solving the min-max-load problem (Section
	// 5.3.2). It is 0 for instructions that use the divider.
	Computed float64
	// FastValueMeasured is the measured throughput with operand values
	// chosen for the fast case (divider-based instructions only).
	FastValueMeasured float64
}

// InstrResult is the complete characterization of one instruction variant.
type InstrResult struct {
	Name     string
	Mnemonic string
	// Uops is the measured number of µops dispatched to execution ports per
	// instruction execution; UopsIssued additionally counts µops handled at
	// rename.
	Uops       float64
	UopsIssued float64
	Ports      PortUsage
	Latency    LatencyResult
	Throughput ThroughputResult
	// Skipped records why an instruction was not fully characterized (system
	// instructions, control flow, ...). Empty if fully characterized.
	Skipped string
}

// ArchResult is the characterization of all instruction variants of one
// microarchitecture generation.
type ArchResult struct {
	Arch    string
	Results map[string]*InstrResult
}

// NewArchResult returns an empty result container for a generation.
func NewArchResult(arch string) *ArchResult {
	return &ArchResult{Arch: arch, Results: make(map[string]*InstrResult)}
}

// Names returns the sorted variant names present in the result.
func (r *ArchResult) Names() []string {
	names := make([]string, 0, len(r.Results))
	for n := range r.Results {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
