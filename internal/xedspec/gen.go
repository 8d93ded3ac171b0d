// Package xedspec generates the x86-64 instruction set the characterization
// tool works on.
//
// The paper extracts its instruction information from the configuration files
// of Intel's X86 Encoder Decoder (XED) and converts it into a simplified
// instruction model (Section 6.1). This package plays the role of those
// configuration files: its generator tables (gen_base.go, gen_vector.go)
// describe every instruction variant, and the builder turns each into an
// isa.Instr of that model.
//
//uopslint:deterministic
package xedspec

import (
	"sync"

	"uopsinfo/internal/isa"
)

// Generate produces every variant of the complete instruction set (all
// extensions), in emission order. Per-microarchitecture instruction sets are
// obtained by filtering on the extensions a generation supports (see the
// uarch package).
func Generate() []*isa.Instr {
	b := newBuilder()
	genBase(b)
	genVector(b)
	return b.instrs
}

var (
	fullSetOnce sync.Once
	fullSet     *isa.Set
	fullSetErr  error
)

// FullISA returns the complete instruction set as an isa.Set. The result is
// built once and cached; the returned set must be treated as read-only.
func FullISA() (*isa.Set, error) {
	fullSetOnce.Do(func() {
		fullSet, fullSetErr = isa.NewSet(Generate())
	})
	return fullSet, fullSetErr
}

// MustFullISA is like FullISA but panics on error. The instruction set is
// static data, so an error is a programming bug.
func MustFullISA() *isa.Set {
	set, err := FullISA()
	if err != nil {
		panic(err)
	}
	return set
}
