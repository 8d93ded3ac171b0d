package measure

import (
	"testing"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/isa"
	"uopsinfo/internal/pipesim"
	"uopsinfo/internal/uarch"
)

// portUsageKernel is the longest kernel a full-ISA characterization builds:
// 256 instances of one blocking instruction followed by the instruction
// under test.
func portUsageKernel(arch *uarch.Arch) asmgen.Sequence {
	set := arch.InstrSet()
	blocker := asmgen.MustInst(set.Lookup("PSHUFD_XMM_XMM_I8"), asmgen.RegOperand(isa.XMM1), asmgen.RegOperand(isa.XMM2), asmgen.ImmOperand(0x1b))
	kernel := make(asmgen.Sequence, 256, 257)
	for i := range kernel {
		kernel[i] = blocker
	}
	return append(kernel, asmgen.MustInst(set.Lookup("MOVQ2DQ_XMM_MM"), asmgen.RegOperand(isa.XMM3), asmgen.RegOperand(isa.MM0)))
}

// BenchmarkMeasure is the harness rung: one Measure of the 257-instruction
// port-usage kernel on Skylake, which takes its short and its long reading.
// recalled measures on a Machine whose reading table holds both from an
// earlier measurement; simulated hands the Machine an empty table before
// each measurement, untimed, so it simulates both (and builds its two
// rename templates again).
func BenchmarkMeasure(b *testing.B) {
	arch := uarch.Get(uarch.Skylake)
	kernel := portUsageKernel(arch)
	rung := func(fresh bool) func(*testing.B) {
		return func(b *testing.B) {
			m := pipesim.New(arch)
			h := New(m)
			if _, err := h.Measure(kernel); err != nil {
				b.Fatal(err)
			}
			sim0, rec0 := m.Readings()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if fresh {
					b.StopTimer()
					m.SetTable(pipesim.NewTable())
					b.StartTimer()
				}
				if _, err := h.Measure(kernel); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			sim, rec := m.Readings()
			b.ReportMetric(float64(sim-sim0)/float64(b.N), "simulated/op")
			b.ReportMetric(float64(rec-rec0)/float64(b.N), "recalled/op")
		}
	}
	b.Run("recalled", rung(false))
	b.Run("simulated", rung(true))
}

// TestMeasureRecalledAllocs pins BenchmarkMeasure/recalled at no
// allocations: a Measure whose two readings the Machine's table holds
// builds their keys in the Machine's scratch and decodes them into the
// harness's own buffers. The test does not run in parallel: AllocsPerRun
// counts every allocation of the process.
func TestMeasureRecalledAllocs(t *testing.T) {
	arch := uarch.Get(uarch.Skylake)
	kernel := portUsageKernel(arch)
	m := pipesim.New(arch)
	h := New(m)
	if _, err := h.Measure(kernel); err != nil {
		t.Fatal(err)
	}
	sim0, _ := m.Readings()
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		if _, e := h.Measure(kernel); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sim, _ := m.Readings(); sim != sim0 {
		t.Fatalf("%d readings simulated, want every reading recalled", sim-sim0)
	}
	if allocs != 0 {
		t.Errorf("a Measure of recalled readings allocates %.0f objects, want none", allocs)
	}
}
