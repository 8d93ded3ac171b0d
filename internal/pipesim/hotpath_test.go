package pipesim

import (
	"math/rand"
	"testing"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/isa"
	"uopsinfo/internal/uarch"
)

// Tests for the allocation-free hot path: steady-state Run must not allocate
// beyond the returned counters, and the per-Machine arenas must never leak
// state between runs or alias between forked Machines.

// The benchmark code shapes (shared with bench_test.go).

func seqIndependentALU(arch *uarch.Arch) asmgen.Sequence {
	add := arch.InstrSet().Lookup("ADD_R64_R64")
	regs := []isa.Reg{isa.RAX, isa.RBX, isa.RCX, isa.RDX, isa.RSI, isa.RDI, isa.R8, isa.R9}
	var seq asmgen.Sequence
	for i := 0; i < 256; i++ {
		r := regs[i%len(regs)]
		seq = append(seq, asmgen.MustInst(add, asmgen.RegOperand(r), asmgen.RegOperand(r)))
	}
	return seq
}

func seqDependencyChain(arch *uarch.Arch) asmgen.Sequence {
	imul := arch.InstrSet().Lookup("IMUL_R64_R64")
	var seq asmgen.Sequence
	for i := 0; i < 256; i++ {
		seq = append(seq, asmgen.MustInst(imul, asmgen.RegOperand(isa.RAX), asmgen.RegOperand(isa.RAX)))
	}
	return seq
}

func seqBlockingSequence(arch *uarch.Arch) asmgen.Sequence {
	pshufd := arch.InstrSet().Lookup("PSHUFD_XMM_XMM_I8")
	movq2dq := arch.InstrSet().Lookup("MOVQ2DQ_XMM_MM")
	var seq asmgen.Sequence
	blocker := asmgen.MustInst(pshufd, asmgen.RegOperand(isa.XMM1), asmgen.RegOperand(isa.XMM2), asmgen.ImmOperand(0x1b))
	for i := 0; i < 64; i++ {
		seq = append(seq, blocker)
	}
	return append(seq, asmgen.MustInst(movq2dq, asmgen.RegOperand(isa.XMM3), asmgen.RegOperand(isa.MM0)))
}

// seqPortUsageKernel is the long reading of a port-usage measurement
// (Algorithm 1): 12 copies of a kernel of 24 instances of one blocking
// instruction followed by the instruction under test. Every copy repeats the
// same two instances, as RunCopies' copies do.
func seqPortUsageKernel(arch *uarch.Arch) asmgen.Sequence {
	pshufd := arch.InstrSet().Lookup("PSHUFD_XMM_XMM_I8")
	movq2dq := arch.InstrSet().Lookup("MOVQ2DQ_XMM_MM")
	blocker := asmgen.MustInst(pshufd, asmgen.RegOperand(isa.XMM1), asmgen.RegOperand(isa.XMM2), asmgen.ImmOperand(0x1b))
	var kernel asmgen.Sequence
	for i := 0; i < 24; i++ {
		kernel = append(kernel, blocker)
	}
	kernel = append(kernel, asmgen.MustInst(movq2dq, asmgen.RegOperand(isa.XMM3), asmgen.RegOperand(isa.MM0)))
	return kernel.Repeat(12)
}

// seqWideIndependentWindow keeps the scheduler window full of *ready* µops:
// IMUL is restricted to one execution port on every modelled generation, so
// the front end (4 µops/cycle) outruns dispatch (1 µop/cycle) and the window
// saturates at its 60-entry capacity with µops whose inputs are long since
// available. A dispatch stage that rescans the whole window pays O(window)
// per cycle here for one dispatch of progress.
func seqWideIndependentWindow(arch *uarch.Arch) asmgen.Sequence {
	imul := arch.InstrSet().Lookup("IMUL_R64_R64")
	regs := []isa.Reg{isa.RAX, isa.RBX, isa.RCX, isa.RDX, isa.RSI, isa.RDI, isa.R8, isa.R9}
	var seq asmgen.Sequence
	for i := 0; i < 256; i++ {
		r := regs[i%len(regs)]
		seq = append(seq, asmgen.MustInst(imul, asmgen.RegOperand(r), asmgen.RegOperand(r)))
	}
	return seq
}

// seqScatteredDeps fills the window with *late-waking* consumers: a serial
// IMUL chain on RAX interleaved with fans of ADDs that each read the chain's
// latest value. The consumers issue long before their input is ready and sit
// in the window for many cycles; a scanning dispatch stage re-walks every
// waiting µop's operands every cycle, while wake-up lists touch each consumer
// only when the producing IMUL actually dispatches.
func seqScatteredDeps(arch *uarch.Arch) asmgen.Sequence {
	imul := arch.InstrSet().Lookup("IMUL_R64_R64")
	add := arch.InstrSet().Lookup("ADD_R64_R64")
	consumers := []isa.Reg{isa.RBX, isa.RCX, isa.RDX, isa.RSI, isa.RDI, isa.R8, isa.R9, isa.R10,
		isa.R11, isa.R12, isa.R13, isa.R14, isa.R15}
	var seq asmgen.Sequence
	for block := 0; block < 16; block++ {
		seq = append(seq, asmgen.MustInst(imul, asmgen.RegOperand(isa.RAX), asmgen.RegOperand(isa.RAX)))
		for _, r := range consumers {
			seq = append(seq, asmgen.MustInst(add, asmgen.RegOperand(r), asmgen.RegOperand(isa.RAX)))
		}
	}
	return seq
}

func seqLoadStoreMix(arch *uarch.Arch) asmgen.Sequence {
	store := arch.InstrSet().Lookup("MOV_M64_R64")
	load := arch.InstrSet().Lookup("MOV_R64_M64")
	var seq asmgen.Sequence
	for i := 0; i < 128; i++ {
		addr := uint64(0x1000 + 64*i)
		seq = append(seq, asmgen.MustInst(store, asmgen.MemOperand(isa.RSI, addr), asmgen.RegOperand(isa.RBX)))
		seq = append(seq, asmgen.MustInst(load, asmgen.RegOperand(isa.RCX), asmgen.MemOperand(isa.RSI, addr)))
	}
	return seq
}

// TestRunSteadyStateAllocs pins the allocation-free contract: once the
// arenas have grown to a sequence's working-set size, Run allocates only the
// returned Counters.PortUops slice.
func TestRunSteadyStateAllocs(t *testing.T) {
	arch := uarch.Get(uarch.Skylake)
	shapes := []struct {
		name string
		seq  asmgen.Sequence
	}{
		{"IndependentALU", seqIndependentALU(arch)},
		{"DependencyChain", seqDependencyChain(arch)},
		{"BlockingSequence", seqBlockingSequence(arch)},
		{"LoadStoreMix", seqLoadStoreMix(arch)},
		{"WideIndependentWindow", seqWideIndependentWindow(arch)},
		{"ScatteredDeps", seqScatteredDeps(arch)},
		{"PortUsageKernel", seqPortUsageKernel(arch)},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			m := New(arch)
			m.MustRun(shape.seq) // grow the arenas to steady state
			allocs := testing.AllocsPerRun(10, func() {
				m.MustRun(shape.seq)
			})
			// One allocation is inherent (Counters.PortUops); allow one more
			// for incidental runtime noise.
			if allocs > 2 {
				t.Errorf("steady-state Run allocates %.1f times per call, want <= 2", allocs)
			}
		})
	}
}

// randomSequences builds deterministic pseudo-random sequences from
// instrPool.
func randomSequences(t testing.TB, arch *uarch.Arch, n int, rng *rand.Rand) []asmgen.Sequence {
	t.Helper()
	pool := instrPool(t, arch)
	seqs := make([]asmgen.Sequence, n)
	for i := range seqs {
		length := 1 + rng.Intn(40)
		seq := make(asmgen.Sequence, 0, length)
		for j := 0; j < length; j++ {
			seq = append(seq, pool[rng.Intn(len(pool))])
		}
		seqs[i] = seq
	}
	return seqs
}

// instrPool returns concrete instructions covering the simulator's special
// cases: ALU and multiply chains, eliminable moves, zero idioms,
// partial-register merges, loads/stores with overlapping addresses, flag
// producers/consumers, the divider, domain-crossing vector mixes and MMX
// transfers.
func instrPool(t testing.TB, arch *uarch.Arch) []*asmgen.Inst {
	t.Helper()
	lookup := func(name string) *isa.Instr {
		in := arch.InstrSet().Lookup(name)
		if in == nil {
			t.Fatalf("variant %s missing on %s", name, arch.Name())
		}
		return in
	}
	gprs := []isa.Reg{isa.RAX, isa.RBX, isa.RCX, isa.RDX, isa.RSI, isa.RDI, isa.R8, isa.R9}
	xmms := []isa.Reg{isa.XMM0, isa.XMM1, isa.XMM2, isa.XMM3, isa.XMM4, isa.XMM5}

	var pool []*asmgen.Inst
	addInst := func(in *asmgen.Inst) { pool = append(pool, in) }
	add := lookup("ADD_R64_R64")
	imul := lookup("IMUL_R64_R64")
	mov := lookup("MOV_R64_R64")
	mov8 := lookup("MOV_R8_I8")
	pxor := lookup("PXOR_XMM_XMM")
	paddd := lookup("PADDD_XMM_XMM")
	addps := lookup("ADDPS_XMM_XMM")
	pshufd := lookup("PSHUFD_XMM_XMM_I8")
	movq2dq := lookup("MOVQ2DQ_XMM_MM")
	div := lookup("DIV_R64")
	store := lookup("MOV_M64_R64")
	load := lookup("MOV_R64_M64")
	for _, a := range gprs {
		for _, b := range gprs[:4] {
			addInst(asmgen.MustInst(add, asmgen.RegOperand(a), asmgen.RegOperand(b)))
			addInst(asmgen.MustInst(mov, asmgen.RegOperand(a), asmgen.RegOperand(b)))
		}
		addInst(asmgen.MustInst(imul, asmgen.RegOperand(a), asmgen.RegOperand(a)))
	}
	addInst(asmgen.MustInst(mov8, asmgen.RegOperand(isa.AL), asmgen.ImmOperand(1)))
	addInst(asmgen.MustInst(mov8, asmgen.RegOperand(isa.BL), asmgen.ImmOperand(2)))
	for _, x := range xmms {
		addInst(asmgen.MustInst(pxor, asmgen.RegOperand(x), asmgen.RegOperand(x))) // zero idiom
		addInst(asmgen.MustInst(paddd, asmgen.RegOperand(x), asmgen.RegOperand(xmms[0])))
		addInst(asmgen.MustInst(addps, asmgen.RegOperand(x), asmgen.RegOperand(xmms[1])))
		addInst(asmgen.MustInst(pshufd, asmgen.RegOperand(x), asmgen.RegOperand(xmms[2]), asmgen.ImmOperand(0x1b)))
	}
	addInst(asmgen.MustInst(movq2dq, asmgen.RegOperand(isa.XMM3), asmgen.RegOperand(isa.MM0)))
	addInst(asmgen.MustInst(div, asmgen.RegOperand(isa.RBX)))
	for i := 0; i < 4; i++ {
		addr := uint64(0x2000 + 8*i)
		addInst(asmgen.MustInst(store, asmgen.MemOperand(isa.RSI, addr), asmgen.RegOperand(isa.RBX)))
		addInst(asmgen.MustInst(load, asmgen.RegOperand(isa.RCX), asmgen.MemOperand(isa.RSI, addr)))
	}
	return pool
}

func countersEqual(a, b Counters) bool {
	if a.Cycles != b.Cycles || a.TotalUops != b.TotalUops ||
		a.IssuedUops != b.IssuedUops || a.ElimUops != b.ElimUops ||
		len(a.PortUops) != len(b.PortUops) {
		return false
	}
	for i := range a.PortUops {
		if a.PortUops[i] != b.PortUops[i] {
			return false
		}
	}
	return true
}

// TestRunDifferentialAcrossForks runs 200 random sequences through a parent
// Machine and a worker-style fork (Clone) and requires identical counters:
// the arenas of parent and fork must not alias, and reused arena state must
// not bleed from one Run into the next. The parent is deliberately kept
// dirty by interleaving unrelated runs.
func TestRunDifferentialAcrossForks(t *testing.T) {
	t.Parallel()
	for _, gen := range []uarch.Generation{uarch.Skylake, uarch.SandyBridge} {
		gen := gen
		t.Run(gen.String(), func(t *testing.T) {
			t.Parallel()
			arch := uarch.Get(gen)
			rng := rand.New(rand.NewSource(0x5eed + int64(gen)))
			seqs := randomSequences(t, arch, 200, rng)

			parent := New(arch)
			dirt := seqLoadStoreMix(arch)
			parent.MustRun(dirt) // leave populated arenas behind
			fork := parent.Clone()

			// The scheduler-pressure shapes join the random pool: they keep
			// the 60-entry window saturated (wide-independent) or full of
			// late-waking consumers (scattered deps), stressing the wake-up
			// list/ready-queue machinery far harder than random short
			// sequences do.
			seqs = append(seqs,
				seqWideIndependentWindow(arch),
				seqScatteredDeps(arch),
				seqIndependentALU(arch),
				seqDependencyChain(arch),
				seqBlockingSequence(arch))

			for i, seq := range seqs {
				want := parent.MustRun(seq)
				got := fork.MustRun(seq)
				if !countersEqual(want, got) {
					t.Fatalf("sequence %d: parent %+v, fork %+v", i, want, got)
				}
				// Re-running on the same dirty Machine must reproduce the
				// counters exactly (no state leaks across Run calls).
				if again := parent.MustRun(seq); !countersEqual(want, again) {
					t.Fatalf("sequence %d: first run %+v, rerun %+v", i, want, again)
				}
				if i%7 == 0 {
					parent.MustRun(dirt) // perturb the parent's arenas only
				}
			}
		})
	}
}

// TestResetClearsState exercises the exported Reset directly: a Reset
// machine must produce the same counters as a brand-new one.
func TestResetClearsState(t *testing.T) {
	t.Parallel()
	arch := uarch.Get(uarch.Skylake)
	m := New(arch)
	seq := seqBlockingSequence(arch)
	want := New(arch).MustRun(seq)
	m.MustRun(seqLoadStoreMix(arch))
	m.Reset()
	m.checkResetInvariants() // must hold in every build, not only -race
	if got := m.MustRun(seq); !countersEqual(want, got) {
		t.Fatalf("after Reset: got %+v, want %+v", got, want)
	}
}

// TestRunDividerRegimesOnWarmMachine replays the random pool alternately
// under the slow and the fast divider regime on one warm Machine, starting
// each sequence in the regime the previous one ended in. Every run must
// match a fresh Machine set to the same regime: nothing a Machine keeps
// across runs may depend on the regime it was in when it kept it.
func TestRunDividerRegimesOnWarmMachine(t *testing.T) {
	t.Parallel()
	arch := uarch.Get(uarch.Skylake)
	seqs := randomSequences(t, arch, 200, rand.New(rand.NewSource(0xd1f)))
	warm := New(arch)
	regime := SlowDividerValues
	differ := 0
	for i, seq := range seqs {
		var got [2]Counters
		for k := range got {
			fresh := New(arch)
			fresh.SetDividerValues(regime)
			want := fresh.MustRun(seq)
			warm.SetDividerValues(regime)
			got[k] = warm.MustRun(seq)
			if !countersEqual(got[k], want) {
				t.Fatalf("sequence %d, divider regime %d: warm %+v, fresh %+v", i, regime, got[k], want)
			}
			if k == 0 {
				regime = FastDividerValues - regime
			}
		}
		if !countersEqual(got[0], got[1]) {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("no sequence ran differently under the two divider regimes")
	}
}
