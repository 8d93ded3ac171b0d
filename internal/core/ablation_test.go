package core

import (
	"testing"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/isa"
	"uopsinfo/internal/uarch"
)

// Ablation tests for the design choices called out in DESIGN.md: why MOVSX is
// used for latency chains instead of MOV, and why the measurement protocol's
// copy differencing matters.

func TestAblationMOVChainUnreliableDueToMoveElimination(t *testing.T) {
	// Section 5.2.1: MOV chains are unreliable because a fraction of the
	// dependent moves is eliminated at rename, so a chain of MOVs runs
	// faster than one cycle per move; MOVSX is never eliminated.
	c := charFor(t, uarch.Skylake)
	h := c.Harness()

	mov := variant(t, c, "MOV_R64_R64")
	movsx := variant(t, c, "MOVSX_R64_R16")

	regs := []isa.Reg{isa.RAX, isa.RBX, isa.RCX}
	var movChain, movsxChain asmgen.Sequence
	for i := 0; i < 12; i++ {
		dst := regs[(i+1)%3]
		src := regs[i%3]
		movChain = append(movChain, asmgen.MustInst(mov, asmgen.RegOperand(dst), asmgen.RegOperand(src)))
		movsxChain = append(movsxChain, asmgen.MustInst(movsx,
			asmgen.RegOperand(dst), asmgen.RegOperand(src.InFamily(isa.ClassGPR16))))
	}
	movRes, err := h.Measure(movChain)
	if err != nil {
		t.Fatal(err)
	}
	movsxRes, err := h.Measure(movsxChain)
	if err != nil {
		t.Fatal(err)
	}
	movPer := movRes.Cycles / 12
	movsxPer := movsxRes.Cycles / 12
	if movsxPer < 0.9 || movsxPer > 1.1 {
		t.Errorf("MOVSX chain = %.2f cycles per link, want exactly 1", movsxPer)
	}
	if movPer >= movsxPer {
		t.Errorf("MOV chain (%.2f) should be faster than MOVSX chain (%.2f) because some moves are eliminated"+
			" — which is exactly why MOV is unsuitable as a chain instruction", movPer, movsxPer)
	}
}

func TestAblationDifferencingRemovesOverheadBias(t *testing.T) {
	// Without the n/n+100 copy differencing of Algorithm 2, the constant
	// overhead of the serializing instructions and counter reads biases the
	// per-instruction cycle count upward.
	c := charFor(t, uarch.Skylake)
	h := c.Harness()
	add := variant(t, c, "ADD_R64_R64")
	seq := asmgen.Sequence{asmgen.MustInst(add, asmgen.RegOperand(isa.RAX), asmgen.RegOperand(isa.RBX))}

	// Protocol measurement: about 0.25-1 cycles per ADD.
	res, err := h.Measure(seq)
	if err != nil {
		t.Fatal(err)
	}
	// Raw single run including overhead: much larger.
	raw, err := h.Runner().Run(seq)
	if err != nil {
		t.Fatal(err)
	}
	rawWithOverhead := float64(raw.Cycles) + float64(h.Config().OverheadCycles)
	if res.Cycles >= rawWithOverhead {
		t.Errorf("protocol measurement (%.2f) should be far below the raw reading with overhead (%.2f)",
			res.Cycles, rawWithOverhead)
	}
	if res.Cycles > 2 {
		t.Errorf("protocol measurement of a single ADD = %.2f cycles, want about 1 or less", res.Cycles)
	}
}

func TestAblationBlockingVersusIsolationOnGroundTruth(t *testing.T) {
	// For a sample of Skylake instructions, Algorithm 1 must match the
	// ground truth exactly, while the isolation observation alone (average
	// µops per port) cannot distinguish combined port groups. This is the
	// quantitative version of the Section 5.1 argument.
	c := charFor(t, uarch.Skylake)
	names := []string{"MOVQ2DQ_XMM_MM", "ADD_R64_R64", "PADDD_XMM_XMM", "IMUL_R64_R64"}
	for _, name := range names {
		in := variant(t, c, name)
		pu, err := c.PortUsage(in, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		truth := GroundTruthUsage(c.Arch().Perf(in))
		if !pu.Equal(truth) {
			t.Errorf("%s: Algorithm 1 got %v, ground truth %v", name, pu, truth)
		}
	}
}

// Benchmarks for the inference algorithms themselves (cost per instruction).

func benchChar(b *testing.B) *Characterizer {
	b.Helper()
	charMu.Lock()
	defer charMu.Unlock()
	if c, ok := charCache[uarch.Skylake]; ok {
		return c
	}
	c := NewForArch(uarch.Get(uarch.Skylake))
	if err := c.ensureBlocking(); err != nil {
		b.Fatal(err)
	}
	charCache[uarch.Skylake] = c
	return c
}

func BenchmarkPortUsageInference(b *testing.B) {
	c := benchChar(b)
	in := c.Arch().InstrSet().Lookup("MOVQ2DQ_XMM_MM")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.PortUsage(in, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLatencyInference(b *testing.B) {
	c := benchChar(b)
	in := c.Arch().InstrSet().Lookup("AESDEC_XMM_XMM")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Latency(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkThroughputInference(b *testing.B) {
	c := benchChar(b)
	in := c.Arch().InstrSet().Lookup("ADD_R64_R64")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Throughput(in, PortUsage{"0156": 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBlockingInstructionDiscovery(b *testing.B) {
	arch := uarch.Get(uarch.Skylake)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewForArch(arch)
		if _, err := c.FindBlockingInstructions(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestInferenceRungAllocs pins the allocations per call of the three
// inference rungs (BenchmarkPortUsageInference, BenchmarkLatencyInference
// and BenchmarkThroughputInference) on their warm Skylake stack. Each call
// alternates between two variants, so that it builds its variant's
// independent instances, which a characterizer keeps only for the variant
// it measured last, as every variant of a pass does; the blocking
// instances, the sorted blocking combinations, the chain latencies, the
// rename templates and the reading table stay warm. Kernel generation
// builds no register maps and no per-combination copy of the blocking
// sequence, and a Measure of recalled readings allocates nothing. A rung
// that allocates more than its ceiling fails under its own name. The test
// does not run in parallel: AllocsPerRun counts every allocation of the
// process.
func TestInferenceRungAllocs(t *testing.T) {
	c := charFor(t, uarch.Skylake)
	alternate := func(a, b string) func() *isa.Instr {
		vs, calls := [2]*isa.Instr{variant(t, c, a), variant(t, c, b)}, 0
		return func() *isa.Instr {
			calls++
			return vs[calls%2]
		}
	}
	portUsage := alternate("MOVQ2DQ_XMM_MM", "PSHUFB_XMM_XMM")
	latency := alternate("AESDEC_XMM_XMM", "AESENC_XMM_XMM")
	throughput := alternate("ADD_R64_R64", "SUB_R64_R64")
	rungs := []struct {
		name    string
		ceiling float64
		run     func() error
	}{
		{"PortUsage of MOVQ2DQ_XMM_MM and PSHUFB_XMM_XMM", 10, func() error {
			_, err := c.PortUsage(portUsage(), 2)
			return err
		}},
		{"Latency of AESDEC_XMM_XMM and AESENC_XMM_XMM", 33, func() error {
			_, err := c.Latency(latency())
			return err
		}},
		{"Throughput of ADD_R64_R64 and SUB_R64_R64", 22, func() error {
			_, err := c.Throughput(throughput(), PortUsage{"0156": 1})
			return err
		}},
	}
	for _, r := range rungs {
		// The first two calls warm the stack: chain latencies, blocking
		// instances, rename templates and the reading table.
		for range 2 {
			if err := r.run(); err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
		}
		var err error
		allocs := testing.AllocsPerRun(20, func() {
			if e := r.run(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		t.Logf("%s: %.0f allocs per call (ceiling %.0f)", r.name, allocs, r.ceiling)
		if allocs > r.ceiling {
			t.Errorf("%s: %.0f allocs per call, above its ceiling of %.0f", r.name, allocs, r.ceiling)
		}
	}
}
