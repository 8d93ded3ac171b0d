package pipesim

import (
	"bytes"
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
		if gotErr == nil && got[i] != want {
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

// memoPairs returns pairs of instances that differ only in what the
// reading key must tell apart beyond the variant: the sub-register of one
// family in a same-register variant (XOR AL, AL is a zero idiom; XOR AL,
// AX, built directly because NewInst checks operand classes, is not), and
// the address of a read-modify-write, which decides whether two of them
// alias.
func memoPairs(t testing.TB, arch *uarch.Arch) [][2]*asmgen.Inst {
	xor8, add := arch.InstrSet().Lookup("XOR_R8_R8"), arch.InstrSet().Lookup("ADD_M64_R64")
	if xor8 == nil || add == nil {
		t.Fatalf("XOR_R8_R8 or ADD_M64_R64 missing on %s", arch.Name())
	}
	rmw := func(addr uint64) *asmgen.Inst {
		return asmgen.MustInst(add, asmgen.MemOperand(isa.RSI, addr), asmgen.RegOperand(isa.RBX))
	}
	return [][2]*asmgen.Inst{
		{asmgen.MustInst(xor8, asmgen.RegOperand(isa.AL), asmgen.RegOperand(isa.AL)),
			&asmgen.Inst{Variant: xor8, Ops: []asmgen.Operand{asmgen.RegOperand(isa.AL), asmgen.RegOperand(isa.AX)}}},
		{rmw(0x3000), rmw(0x3040)},
	}
}

// sharePairs returns pairs of instances of different variants that the
// reading key must not tell apart, because rename reads of them only what
// they have in common: the same template (the two widths of one operation
// decode alike on every generation), the same decoding and the same
// register families. The pairs are a plain ALU operation, a zero idiom and
// an eliminable move, each at 32 and at 64 bits.
func sharePairs(t testing.TB, arch *uarch.Arch) [][2]*asmgen.Inst {
	var pairs [][2]*asmgen.Inst
	for _, p := range []struct {
		op           string
		dst32, src32 isa.Reg
	}{{"ADD", isa.EAX, isa.ECX}, {"XOR", isa.EAX, isa.EAX}, {"MOV", isa.EAX, isa.ECX}} {
		narrow, wide := arch.InstrSet().Lookup(p.op+"_R32_R32"), arch.InstrSet().Lookup(p.op+"_R64_R64")
		if narrow == nil || wide == nil {
			t.Fatalf("%s_R32_R32 or %s_R64_R64 missing on %s", p.op, p.op, arch.Name())
		}
		pairs = append(pairs, [2]*asmgen.Inst{
			asmgen.MustInst(narrow, asmgen.RegOperand(p.dst32), asmgen.RegOperand(p.src32)),
			asmgen.MustInst(wide, asmgen.RegOperand(p.dst32.Family()), asmgen.RegOperand(p.src32.Family())),
		})
	}
	return pairs
}

// penaltyPair returns a YMM AVX instance and a legacy SSE instance, built on
// Sandy Bridge, that decode alike on Haswell and on Skylake: a kernel of the
// two reads differently on those two generations only through the SSE/AVX
// penalty, which Haswell charges and Skylake does not.
func penaltyPair() []*asmgen.Inst {
	set := uarch.Get(uarch.SandyBridge).InstrSet()
	return []*asmgen.Inst{
		asmgen.MustInst(set.Lookup("VANDPS_YMM_YMM_YMM"), asmgen.RegOperand(isa.YMM0), asmgen.RegOperand(isa.YMM1), asmgen.RegOperand(isa.YMM2)),
		asmgen.MustInst(set.Lookup("ANDPS_XMM_XMM"), asmgen.RegOperand(isa.XMM3), asmgen.RegOperand(isa.XMM4)),
	}
}

// fuzzPool is instrPool and the penaltyPair (every generation simulates
// it, AVX or not), plus every instance of the first 32 instructions of each
// bench shape that it lacks (compared by assembly text), so a fuzz input of
// byte indices can spell out the shapes' prefixes, and then the memoPairs
// and the sharePairs, each pair at two adjacent indices.
func fuzzPool(t testing.TB, arch *uarch.Arch) []*asmgen.Inst {
	pool := append(instrPool(t, arch), penaltyPair()...)
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
	for _, p := range append(memoPairs(t, arch), sharePairs(t, arch)...) {
		pool = append(pool, p[0], p[1])
	}
	return pool
}

// FuzzRunCopies builds two kernels of at most 32 instructions each from
// the input, runs both on one Machine and requires each to match Run on
// materialized copies, errors included: the second kernel's readings may
// be recalled from the table the first one filled. The first byte picks the
// generation (bits 2 and up), a small MaxCycles (bit 1) and the divider
// regime (bit 0); bytes 1–32 index fuzzPool for the first kernel and bytes
// 33–64 for the second. Byte 65, if present, picks a second generation: a
// Machine of it shares the first Machine's table and reads both kernels
// again, built from its own pool (the pools of all generations list the
// same instructions), so its readings may be recalled from the other
// generation's. The seed corpus spells out the bench shapes' prefixes as
// first kernels, and for each generation and memo pair a first kernel of
// 32 copies of the pair's first instance and a second one that alternates
// the pair; then the memo-pair inputs of some generations again, each read
// on a second generation; then a first kernel that alternates the
// penaltyPair's YMM AVX and legacy SSE instances, which pays the SSE/AVX
// penalty, and a second of the SSE instance alone, which cannot, read on
// Haswell and then on Skylake, whose records differ only in the penalty.
// Last come, for each generation and share pair, a first kernel of 32
// copies of the pair's first instance and a second of 32 copies of its
// second, which recalls the first's readings, and the penalty input read on
// Sandy Bridge and then on Haswell, whose records differ only in the port
// count.
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
	// pairIndex is the pool index of the first instance of pair j of
	// memoPairs followed by sharePairs, on generation g.
	memoCount := len(memoPairs(f, archs[0]))
	pairIndex := func(g, j int) byte {
		pairs := memoCount + len(sharePairs(f, archs[g]))
		return byte(len(pools[g]) - 2*(pairs-j))
	}
	memoSeed := func(g, j int) []byte {
		first := pairIndex(g, j)
		seed := append([]byte{byte(g << 2)}, bytes.Repeat([]byte{first}, 32)...)
		return append(seed, bytes.Repeat([]byte{first, first + 1}, 16)...)
	}
	for g, arch := range archs {
		for j := range memoPairs(f, arch) {
			f.Add(memoSeed(g, j))
		}
	}
	for _, p := range [][2]uarch.Generation{{uarch.Skylake, uarch.KabyLake}, {uarch.Nehalem, uarch.Westmere},
		{uarch.SandyBridge, uarch.IvyBridge}, {uarch.Haswell, uarch.Broadwell}, {uarch.Haswell, uarch.Skylake},
		{uarch.CoffeeLake, uarch.Nehalem}} {
		for j := range memoPairs(f, archs[p[0]]) {
			f.Add(append(memoSeed(int(p[0]), j), byte(p[1])))
		}
	}
	pair := penaltyPair()
	avx, sse := index[pair[0].String()], index[pair[1].String()]
	penaltySeed := func(g uarch.Generation) []byte {
		seed := append([]byte{byte(g << 2)}, bytes.Repeat([]byte{avx, sse}, 16)...)
		return append(seed, bytes.Repeat([]byte{sse}, 32)...)
	}
	f.Add(append(penaltySeed(uarch.Haswell), byte(uarch.Skylake)))
	for g, arch := range archs {
		for j := range sharePairs(f, arch) {
			first := pairIndex(g, memoCount+j)
			seed := append([]byte{byte(g << 2)}, bytes.Repeat([]byte{first}, 32)...)
			f.Add(append(seed, bytes.Repeat([]byte{first + 1}, 32)...))
		}
	}
	f.Add(append(penaltySeed(uarch.SandyBridge), byte(uarch.Haswell)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		gens := []int{int(data[0]>>2) % len(archs)}
		if len(data) > 65 {
			gens = append(gens, int(data[65])%len(archs))
		}
		var cfg Config
		if data[0]&2 != 0 {
			cfg.MaxCycles = 1000
		}
		cfg.DividerValues = DividerValues(data[0] & 1)
		table := NewTable()
		for _, g := range gens {
			m := NewWithConfig(archs[g], cfg)
			m.SetTable(table)
			for _, part := range [][]byte{data[1:min(len(data), 33)], data[min(len(data), 33):min(len(data), 65)]} {
				var k asmgen.Sequence
				for _, b := range part {
					k = append(k, pools[g][int(b)%len(pools[g])])
				}
				checkRunCopies(t, m, k)
			}
		}
	})
}
