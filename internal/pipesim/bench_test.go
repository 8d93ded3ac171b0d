package pipesim

import (
	"testing"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/uarch"
)

// Benchmarks for the simulator itself: the cost of simulating the three code
// shapes the characterization algorithms generate most often (independent
// throughput sequences, serial dependency chains, and port-blocking
// sequences).

func benchSequence(b *testing.B, seq asmgen.Sequence) {
	b.Helper()
	arch := uarch.Get(uarch.Skylake)
	m := New(arch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(seq); err != nil {
			b.Fatal(err)
		}
	}
}

// The sequence builders live in hotpath_test.go, where the
// allocation-regression tests pin the same four shapes.

func BenchmarkRunIndependentALU(b *testing.B) {
	benchSequence(b, seqIndependentALU(uarch.Get(uarch.Skylake)))
}

func BenchmarkRunDependencyChain(b *testing.B) {
	benchSequence(b, seqDependencyChain(uarch.Get(uarch.Skylake)))
}

func BenchmarkRunBlockingSequence(b *testing.B) {
	benchSequence(b, seqBlockingSequence(uarch.Get(uarch.Skylake)))
}

func BenchmarkRunLoadStoreMix(b *testing.B) {
	benchSequence(b, seqLoadStoreMix(uarch.Get(uarch.Skylake)))
}

// The two scheduler-pressure shapes: a window saturated with ready µops
// behind a single-port bottleneck, and a window full of late-waking
// consumers. They make the per-cycle cost of the dispatch stage itself
// visible, which the four shapes above under-stress (their windows stay
// small or drain quickly).

func BenchmarkRunWideIndependentWindow(b *testing.B) {
	benchSequence(b, seqWideIndependentWindow(uarch.Get(uarch.Skylake)))
}

func BenchmarkRunScatteredDeps(b *testing.B) {
	benchSequence(b, seqScatteredDeps(uarch.Get(uarch.Skylake)))
}

// The port-usage kernel: the reading Algorithm 1 takes most often, one
// blocking instance repeated ahead of the instruction under test.

func BenchmarkRunPortUsageKernel(b *testing.B) {
	benchSequence(b, seqPortUsageKernel(uarch.Get(uarch.Skylake)))
}
