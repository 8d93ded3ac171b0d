package pipesim

import (
	"fmt"
	"math/rand"
	"testing"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/isa"
	"uopsinfo/internal/uarch"
)

// Tests of RunCopies: renaming a kernel n times inside one run must give
// exactly the counters, or the error, of running n materialized copies.

// copyCounts are the copy counts RunCopies is checked at: an empty run, one
// copy, and the default configuration's short and long readings.
var copyCounts = []int{0, 1, 2, 12}

// benchShapes are the sequences of the Run* benchmarks.
func benchShapes(arch *uarch.Arch) []asmgen.Sequence {
	return []asmgen.Sequence{seqIndependentALU(arch), seqDependencyChain(arch),
		seqBlockingSequence(arch), seqLoadStoreMix(arch), seqWideIndependentWindow(arch),
		seqScatteredDeps(arch), seqPortUsageKernel(arch)}
}

// checkRunCopies fails t unless m.RunCopies(k, copyCounts...) equals, count
// by count, a fresh Machine's Run(k.Repeat(n)) under m's configuration, and
// fails with the error of the first count that does not drain. It reports
// whether some count did not drain.
func checkRunCopies(t testing.TB, m *Machine, k asmgen.Sequence) (undrained bool) {
	t.Helper()
	got, gotErr := m.RunCopies(k, copyCounts...)
	var wantErr error
	for i, n := range copyCounts {
		want, err := NewWithConfig(m.arch, m.cfg).Run(k.Repeat(n))
		if err != nil {
			wantErr = err
			break
		}
		if gotErr == nil && !countersEqual(got[i], want) {
			t.Fatalf("%d copies of a %d-instruction kernel: RunCopies %+v, Run %+v", n, len(k), got[i], want)
		}
	}
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%d-instruction kernel: RunCopies error %v, Run error %v", len(k), gotErr, wantErr)
	}
	if gotErr == nil && len(got) != len(copyCounts) {
		t.Fatalf("RunCopies returned %d readings for %d counts", len(got), len(copyCounts))
	}
	return wantErr != nil
}

// TestRunCopiesMatchesRun checks RunCopies on every generation, over the
// bench shapes, random sequences and a divider chain, under both divider
// regimes and with the default and a small MaxCycles, each configuration
// on one warm Machine. The divider chain cannot drain 12 copies in 1000
// cycles, so the error path is covered too.
func TestRunCopiesMatchesRun(t *testing.T) {
	t.Parallel()
	for i, arch := range uarch.All() {
		i, arch := i, arch
		t.Run(arch.Name(), func(t *testing.T) {
			t.Parallel()
			kernels := append(benchShapes(arch), randomSequences(t, arch, 30, rand.New(rand.NewSource(int64(i))))...)
			div := lookup(t, arch, "DIV_R64")
			var divChain asmgen.Sequence
			for j := 0; j < 8; j++ {
				divChain = append(divChain, asmgen.MustInst(div, asmgen.RegOperand(isa.RBX)))
			}
			kernels = append(kernels, divChain)
			for _, cfg := range []Config{{}, {MaxCycles: 1000}} {
				warm := NewWithConfig(arch, cfg)
				undrained := false
				for _, regime := range []DividerValues{SlowDividerValues, FastDividerValues} {
					warm.SetDividerValues(regime)
					for _, k := range kernels {
						undrained = checkRunCopies(t, warm, k) || undrained
					}
				}
				if cfg.MaxCycles == 1000 && !undrained {
					t.Error("no kernel failed to drain under MaxCycles 1000")
				}
			}
		})
	}
}

// fuzzPool is instrPool plus every instance of the first 32 instructions of
// each bench shape that it lacks (compared by assembly text), so a fuzz
// input of byte indices can spell out the shapes' prefixes.
func fuzzPool(t testing.TB, arch *uarch.Arch) []*asmgen.Inst {
	pool := instrPool(t, arch)
	seen := make(map[string]bool)
	for _, in := range pool {
		seen[in.String()] = true
	}
	for _, shape := range benchShapes(arch) {
		for _, in := range shape[:min(len(shape), 32)] {
			if !seen[in.String()] {
				seen[in.String()] = true
				pool = append(pool, in)
			}
		}
	}
	return pool
}

// FuzzRunCopies builds a kernel of at most 32 instructions from the input
// and requires RunCopies to match Run on materialized copies, errors
// included. The first byte picks the generation (bits 2 and up), a small
// MaxCycles (bit 1) and the divider regime (bit 0); every further byte
// indexes fuzzPool. The seed corpus spells out the bench shapes' prefixes.
func FuzzRunCopies(f *testing.F) {
	archs := uarch.All()
	pools := make([][]*asmgen.Inst, len(archs))
	for i, arch := range archs {
		pools[i] = fuzzPool(f, arch)
		if len(pools[i]) > 256 {
			f.Fatalf("%s: pool of %d instructions is not byte-addressable", arch.Name(), len(pools[i]))
		}
	}
	index := make(map[string]byte)
	for i, in := range pools[0] {
		index[in.String()] = byte(i)
	}
	for i, shape := range benchShapes(archs[0]) {
		seed := []byte{0}
		for _, in := range shape[:min(len(shape), 32)] {
			seed = append(seed, index[in.String()])
		}
		f.Add(seed)
		f.Add(append([]byte{byte(i<<2 | 3)}, seed[1:]...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		g := int(data[0]>>2) % len(archs)
		var cfg Config
		if data[0]&2 != 0 {
			cfg.MaxCycles = 1000
		}
		cfg.DividerValues = DividerValues(data[0] & 1)
		var k asmgen.Sequence
		for _, b := range data[1:min(len(data), 33)] {
			k = append(k, pools[g][int(b)%len(pools[g])])
		}
		checkRunCopies(t, NewWithConfig(archs[g], cfg), k)
	})
}
