package pipesim

import (
	"testing"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/isa"
	"uopsinfo/internal/uarch"
)

// Tests for the secondary microarchitectural mechanisms that the benchmark
// generator has to work around: SSE/AVX transition penalties (why blocking
// instructions are chosen per extension family), bypass delays between the
// vector domains (why both an integer and a floating-point shuffle chain are
// measured), and partial-register merges.

func TestSSEAVXTransitionPenalty(t *testing.T) {
	t.Parallel()
	// On Sandy Bridge, executing a legacy SSE instruction while the upper
	// halves of the YMM registers are dirty costs a large penalty; the same
	// mix with a VZEROUPPER in between does not.
	arch := uarch.Get(uarch.SandyBridge)
	m := New(arch)
	vaddps := arch.InstrSet().Lookup("VADDPS_YMM_YMM_YMM")
	addps := arch.InstrSet().Lookup("ADDPS_XMM_XMM")
	vzero := arch.InstrSet().Lookup("VZEROUPPER")
	if vaddps == nil || addps == nil || vzero == nil {
		t.Fatal("required variants missing on Sandy Bridge")
	}
	avx := asmgen.MustInst(vaddps, asmgen.RegOperand(isa.YMM0), asmgen.RegOperand(isa.YMM1), asmgen.RegOperand(isa.YMM2))
	sse := asmgen.MustInst(addps, asmgen.RegOperand(isa.XMM3), asmgen.RegOperand(isa.XMM4))
	clean := asmgen.MustInst(vzero)

	mixed := asmgen.Sequence{avx, sse}
	fenced := asmgen.Sequence{avx, clean, sse}
	cMixed := m.MustRun(mixed)
	cFenced := m.MustRun(fenced)
	if cMixed.Cycles <= cFenced.Cycles+arch.Machine().SSEAVXPenalty/2 {
		t.Errorf("SSE after dirty AVX (%d cycles) should pay a transition penalty; with VZEROUPPER it takes %d cycles",
			cMixed.Cycles, cFenced.Cycles)
	}

	// Skylake does not charge this penalty in the model.
	skl := New(uarch.Get(uarch.Skylake))
	sklMixed := skl.MustRun(asmgen.Sequence{
		asmgen.MustInst(uarch.Get(uarch.Skylake).InstrSet().Lookup("VADDPS_YMM_YMM_YMM"),
			asmgen.RegOperand(isa.YMM0), asmgen.RegOperand(isa.YMM1), asmgen.RegOperand(isa.YMM2)),
		asmgen.MustInst(uarch.Get(uarch.Skylake).InstrSet().Lookup("ADDPS_XMM_XMM"),
			asmgen.RegOperand(isa.XMM3), asmgen.RegOperand(isa.XMM4)),
	})
	if sklMixed.Cycles > 30 {
		t.Errorf("Skylake mixed SSE/AVX sequence took %d cycles; no transition penalty expected", sklMixed.Cycles)
	}
}

func TestBypassDelayBetweenDomains(t *testing.T) {
	t.Parallel()
	// A chain alternating between a vector-integer producer and a
	// floating-point consumer pays a bypass delay each hop, so it is slower
	// than a pure integer chain of the same length.
	arch := uarch.Get(uarch.Skylake)
	m := New(arch)
	paddd := arch.InstrSet().Lookup("PADDD_XMM_XMM") // vector integer, latency 1
	addps := arch.InstrSet().Lookup("ADDPS_XMM_XMM") // floating point
	pand := arch.InstrSet().Lookup("PAND_XMM_XMM")   // vector integer, latency 1
	if paddd == nil || addps == nil || pand == nil {
		t.Fatal("required variants missing")
	}
	x := asmgen.RegOperand(isa.XMM1)
	y := asmgen.RegOperand(isa.XMM2)

	var pureInt, mixed asmgen.Sequence
	for i := 0; i < 20; i++ {
		pureInt = append(pureInt, asmgen.MustInst(paddd, x, y))
		pureInt = append(pureInt, asmgen.MustInst(pand, x, y))
		mixed = append(mixed, asmgen.MustInst(paddd, x, y))
		mixed = append(mixed, asmgen.MustInst(addps, x, y))
	}
	cInt := m.MustRun(pureInt)
	cMixed := m.MustRun(mixed)
	if cMixed.Cycles <= cInt.Cycles {
		t.Errorf("mixed-domain chain (%d cycles) should be slower than the pure integer chain (%d cycles): "+
			"ADDPS has a higher latency and each domain crossing adds a bypass delay", cMixed.Cycles, cInt.Cycles)
	}
}

func TestPartialRegisterMergeCreatesDependency(t *testing.T) {
	t.Parallel()
	// Writing an 8-bit register merges with the previous 64-bit contents, so
	// a chain of "MOV AL, imm; ADD RAX, RBX" is serialized through RAX even
	// though the MOV looks like a write-only operation.
	arch := uarch.Get(uarch.Skylake)
	m := New(arch)
	mov8 := arch.InstrSet().Lookup("MOV_R8_I8")
	add := arch.InstrSet().Lookup("ADD_R64_R64")
	if mov8 == nil || add == nil {
		t.Fatal("required variants missing")
	}
	var narrow, wide asmgen.Sequence
	mov64 := arch.InstrSet().Lookup("MOV_R64_I32")
	for i := 0; i < 30; i++ {
		narrow = append(narrow, asmgen.MustInst(mov8, asmgen.RegOperand(isa.AL), asmgen.ImmOperand(1)))
		narrow = append(narrow, asmgen.MustInst(add, asmgen.RegOperand(isa.RAX), asmgen.RegOperand(isa.RBX)))
		// The 32/64-bit move zero-extends and breaks the dependency.
		wide = append(wide, asmgen.MustInst(mov64, asmgen.RegOperand(isa.RAX), asmgen.ImmOperand(1)))
		wide = append(wide, asmgen.MustInst(add, asmgen.RegOperand(isa.RAX), asmgen.RegOperand(isa.RBX)))
	}
	cNarrow := m.MustRun(narrow)
	cWide := m.MustRun(wide)
	if cNarrow.Cycles <= cWide.Cycles {
		t.Errorf("partial-register chain (%d cycles) should be slower than the full-width chain (%d cycles)",
			cNarrow.Cycles, cWide.Cycles)
	}
}

func TestSchedulerSizeLimitsWindow(t *testing.T) {
	t.Parallel()
	// Pins the scheduler-window semantics documented on Config.SchedulerSize:
	// the window counts µops that have issued but not yet dispatched, a µop
	// frees its entry at the end of the cycle in which it dispatches, and the
	// freed entry is available to the front end in the next cycle.
	//
	// With N independent single-µop ADDs (all inputs live-in, four ALU ports
	// on Skylake, issue width 4), a window of W <= 4 admits W µops per cycle,
	// dispatches all of them the same cycle, and reclaims the entries for the
	// next group — so the run takes exactly ceil(N/W) cycles. If dispatched
	// µops kept their entries until some later completion point, the
	// throughput would be strictly lower.
	arch := uarch.Get(uarch.Skylake)
	add := arch.InstrSet().Lookup("ADD_R64_R64")
	regs := []isa.Reg{isa.RAX, isa.RBX, isa.RCX, isa.RDX, isa.RSI, isa.RDI, isa.R8, isa.R9}
	const n = 8
	var seq asmgen.Sequence
	for i := 0; i < n; i++ {
		seq = append(seq, asmgen.MustInst(add, asmgen.RegOperand(regs[i]), asmgen.RegOperand(regs[i])))
	}
	for _, tc := range []struct{ window, wantCycles int }{
		{1, 8}, {2, 4}, {4, 2},
	} {
		m := NewWithConfig(arch, Config{SchedulerSize: tc.window})
		if got := m.MustRun(seq).Cycles; got != tc.wantCycles {
			t.Errorf("window %d: %d independent ADDs took %d cycles, want %d (waiting-µops-only window)",
				tc.window, n, got, tc.wantCycles)
		}
	}

	// The original qualitative property still holds: a tiny window behind a
	// long-latency instruction cannot run ahead, so it is never faster than
	// the 60-entry default.
	small := NewWithConfig(arch, Config{SchedulerSize: 4})
	normal := New(arch)
	div := arch.InstrSet().Lookup("DIV_R64")
	var blocked asmgen.Sequence
	blocked = append(blocked, asmgen.MustInst(div, asmgen.RegOperand(isa.RBX)))
	for i := 0; i < 60; i++ {
		blocked = append(blocked, asmgen.MustInst(add, asmgen.RegOperand(isa.RCX), asmgen.RegOperand(isa.RSI)))
	}
	cSmall := small.MustRun(blocked)
	cNormal := normal.MustRun(blocked)
	if cSmall.Cycles < cNormal.Cycles {
		t.Errorf("a 4-entry scheduler (%d cycles) should not be faster than the 60-entry default (%d cycles)",
			cSmall.Cycles, cNormal.Cycles)
	}
}

func TestCountersSub(t *testing.T) {
	t.Parallel()
	a := Counters{Cycles: 10, PortUops: [MaxPorts]int{1, 2, 3}, TotalUops: 6, IssuedUops: 7, ElimUops: 1}
	b := Counters{Cycles: 4, PortUops: [MaxPorts]int{1, 1, 1}, TotalUops: 3, IssuedUops: 3, ElimUops: 0}
	want := Counters{Cycles: 6, PortUops: [MaxPorts]int{0, 1, 2}, TotalUops: 3, IssuedUops: 4, ElimUops: 1}
	if diff := a.Sub(b); diff != want {
		t.Errorf("Sub = %+v, want %+v", diff, want)
	}
}
