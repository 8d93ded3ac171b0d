package pipesim

import (
	"strings"
	"testing"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/isa"
	"uopsinfo/internal/uarch"
)

func skylake(t *testing.T) (*uarch.Arch, *Machine) {
	t.Helper()
	arch := uarch.Get(uarch.Skylake)
	return arch, New(arch)
}

func lookup(t *testing.T, arch *uarch.Arch, name string) *isa.Instr {
	t.Helper()
	in := arch.InstrSet().Lookup(name)
	if in == nil {
		t.Fatalf("instruction %q not found on %s", name, arch.Name())
	}
	return in
}

// chainOf builds a dependency chain of n copies of a two-register-operand
// instruction where each instance reads the register written by the previous
// one (using the same register for both operands of every instance).
func chainOf(t *testing.T, in *isa.Instr, reg isa.Reg, n int) asmgen.Sequence {
	t.Helper()
	var seq asmgen.Sequence
	for i := 0; i < n; i++ {
		seq = append(seq, asmgen.MustInst(in, asmgen.RegOperand(reg), asmgen.RegOperand(reg)))
	}
	return seq
}

func TestDependentChainLatency(t *testing.T) {
	t.Parallel()
	arch, m := skylake(t)
	movsx := lookup(t, arch, "MOVSX_R64_R16")
	// MOVSX RAX, AX chained through the same register family: one cycle per
	// instruction once the pipeline is busy.
	var seq asmgen.Sequence
	for i := 0; i < 50; i++ {
		seq = append(seq, asmgen.MustInst(movsx, asmgen.RegOperand(isa.RAX), asmgen.RegOperand(isa.AX)))
	}
	c := m.MustRun(seq)
	perInstr := float64(c.Cycles) / 50
	if perInstr < 0.9 || perInstr > 1.3 {
		t.Fatalf("dependent MOVSX chain: %.2f cycles/instr, want about 1", perInstr)
	}
}

func TestIndependentThroughputADD(t *testing.T) {
	t.Parallel()
	arch, m := skylake(t)
	add := lookup(t, arch, "ADD_R64_R64")
	regs := []isa.Reg{isa.RAX, isa.RBX, isa.RCX, isa.RDX, isa.RSI, isa.RDI, isa.R8, isa.R9}
	var seq asmgen.Sequence
	for i := 0; i < 200; i++ {
		r := regs[i%len(regs)]
		seq = append(seq, asmgen.MustInst(add, asmgen.RegOperand(r), asmgen.RegOperand(r)))
	}
	c := m.MustRun(seq)
	perInstr := float64(c.Cycles) / 200
	// ADD can use four ports on Skylake but the front end limits the rate to
	// four per cycle, so about 0.25 cycles per instruction.
	if perInstr < 0.2 || perInstr > 0.4 {
		t.Fatalf("independent ADD: %.3f cycles/instr, want about 0.25", perInstr)
	}
	// All µops should have gone to the integer ALU ports 0, 1, 5, 6.
	for _, p := range []int{2, 3, 4, 7} {
		if c.PortUops[p] != 0 {
			t.Errorf("port %d has %d µops, want 0", p, c.PortUops[p])
		}
	}
}

func TestPortThroughputLimitedByPortCount(t *testing.T) {
	t.Parallel()
	// On Nehalem the integer ALUs are on three ports, so a long stream of
	// independent ADDs runs at about 1/3 cycles per instruction.
	arch := uarch.Get(uarch.Nehalem)
	m := New(arch)
	add := lookup(t, arch, "ADD_R64_R64")
	regs := []isa.Reg{isa.RAX, isa.RBX, isa.RCX, isa.RDX, isa.RSI, isa.RDI}
	var seq asmgen.Sequence
	for i := 0; i < 300; i++ {
		r := regs[i%len(regs)]
		seq = append(seq, asmgen.MustInst(add, asmgen.RegOperand(r), asmgen.RegOperand(r)))
	}
	c := m.MustRun(seq)
	perInstr := float64(c.Cycles) / 300
	if perInstr < 0.30 || perInstr > 0.45 {
		t.Fatalf("independent ADD on Nehalem: %.3f cycles/instr, want about 0.33", perInstr)
	}
}

func TestPointerChasingLoadLatency(t *testing.T) {
	t.Parallel()
	arch, m := skylake(t)
	mov := lookup(t, arch, "MOV_R64_M64")
	// MOV RAX, [RAX] chain: each load depends on the previous one through
	// the address register, so it runs at the load latency.
	var seq asmgen.Sequence
	for i := 0; i < 40; i++ {
		seq = append(seq, asmgen.MustInst(mov,
			asmgen.RegOperand(isa.RAX), asmgen.MemOperand(isa.RAX, 0x2000)))
	}
	c := m.MustRun(seq)
	perInstr := float64(c.Cycles) / 40
	want := float64(arch.LoadLatency())
	if perInstr < want-1 || perInstr > want+1.5 {
		t.Fatalf("pointer chase: %.2f cycles/instr, want about %v", perInstr, want)
	}
}

func TestZeroIdiomBreaksDependency(t *testing.T) {
	t.Parallel()
	arch, m := skylake(t)
	imul := lookup(t, arch, "IMUL_R64_R64")
	xor := lookup(t, arch, "XOR_R64_R64")
	// Without the zero idiom, a chain of IMULs on RAX runs at 3 cycles per
	// IMUL. Inserting XOR RAX, RAX between them breaks the dependency.
	var chained, broken asmgen.Sequence
	for i := 0; i < 30; i++ {
		chained = append(chained, asmgen.MustInst(imul, asmgen.RegOperand(isa.RAX), asmgen.RegOperand(isa.RAX)))
		broken = append(broken, asmgen.MustInst(imul, asmgen.RegOperand(isa.RAX), asmgen.RegOperand(isa.RAX)))
		broken = append(broken, asmgen.MustInst(xor, asmgen.RegOperand(isa.RAX), asmgen.RegOperand(isa.RAX)))
	}
	cChained := m.MustRun(chained)
	cBroken := m.MustRun(broken)
	if cBroken.Cycles >= cChained.Cycles {
		t.Fatalf("zero idiom did not break the dependency: chained %d cycles, broken %d cycles",
			cChained.Cycles, cBroken.Cycles)
	}
}

func TestZeroIdiomEliminatedOnSkylake(t *testing.T) {
	t.Parallel()
	arch, m := skylake(t)
	xor := lookup(t, arch, "XOR_R64_R64")
	var seq asmgen.Sequence
	for i := 0; i < 20; i++ {
		seq = append(seq, asmgen.MustInst(xor, asmgen.RegOperand(isa.RAX), asmgen.RegOperand(isa.RAX)))
	}
	c := m.MustRun(seq)
	if c.ElimUops == 0 {
		t.Fatalf("zero idioms were not eliminated at rename (elim=%d)", c.ElimUops)
	}
	if c.TotalUops != 0 {
		t.Errorf("eliminated zero idioms should not use execution ports, got %d port µops", c.TotalUops)
	}
}

func TestZeroIdiomNotEliminatedOnNehalem(t *testing.T) {
	t.Parallel()
	arch := uarch.Get(uarch.Nehalem)
	m := New(arch)
	xor := lookup(t, arch, "XOR_R64_R64")
	var seq asmgen.Sequence
	for i := 0; i < 20; i++ {
		seq = append(seq, asmgen.MustInst(xor, asmgen.RegOperand(isa.RAX), asmgen.RegOperand(isa.RAX)))
	}
	c := m.MustRun(seq)
	if c.TotalUops == 0 {
		t.Fatalf("Nehalem zero idioms still use an execution port, got 0 port µops")
	}
}

func TestDividerNotPipelined(t *testing.T) {
	t.Parallel()
	arch, m := skylake(t)
	div := lookup(t, arch, "DIV_R32")
	// Independent divisions: destination registers are implicit (RAX/RDX),
	// so they cannot be made independent, but the divider occupancy should
	// still dominate and give a throughput well above 1 cycle.
	var seq asmgen.Sequence
	for i := 0; i < 20; i++ {
		seq = append(seq, asmgen.MustInst(div, asmgen.RegOperand(isa.EBX)))
	}
	c := m.MustRun(seq)
	perInstr := float64(c.Cycles) / 20
	if perInstr < 5 {
		t.Fatalf("DIV throughput %.2f cycles/instr, want clearly more than 1 (divider is not pipelined)", perInstr)
	}
}

func TestDividerFastValuesAreFaster(t *testing.T) {
	t.Parallel()
	arch := uarch.Get(uarch.Skylake)
	div := lookup(t, arch, "DIV_R64")
	var seq asmgen.Sequence
	for i := 0; i < 20; i++ {
		seq = append(seq, asmgen.MustInst(div, asmgen.RegOperand(isa.RBX)))
	}
	slow := New(arch)
	slow.SetDividerValues(SlowDividerValues)
	fast := New(arch)
	fast.SetDividerValues(FastDividerValues)
	cSlow := slow.MustRun(seq)
	cFast := fast.MustRun(seq)
	if cFast.Cycles >= cSlow.Cycles {
		t.Fatalf("fast divider values (%d cycles) should be faster than slow values (%d cycles)",
			cFast.Cycles, cSlow.Cycles)
	}
}

func TestMoveEliminationIndependentMoves(t *testing.T) {
	t.Parallel()
	arch, m := skylake(t)
	mov := lookup(t, arch, "MOV_R64_R64")
	// Independent MOVs (source never written in the sequence) are always
	// eliminated on Skylake.
	var seq asmgen.Sequence
	for i := 0; i < 30; i++ {
		seq = append(seq, asmgen.MustInst(mov, asmgen.RegOperand(isa.RCX), asmgen.RegOperand(isa.RBX)))
	}
	c := m.MustRun(seq)
	if c.ElimUops != 30 {
		t.Fatalf("independent MOVs eliminated: %d, want 30", c.ElimUops)
	}
}

func TestMoveEliminationPartialInDependentChain(t *testing.T) {
	t.Parallel()
	arch, m := skylake(t)
	mov := lookup(t, arch, "MOV_R64_R64")
	// A dependent MOV chain is only partially eliminated (about one third,
	// Section 5.2.1), so MOVSX is preferred for latency chains.
	regs := []isa.Reg{isa.RAX, isa.RBX, isa.RCX}
	var seq asmgen.Sequence
	for i := 0; i < 60; i++ {
		dst := regs[(i+1)%3]
		src := regs[i%3]
		seq = append(seq, asmgen.MustInst(mov, asmgen.RegOperand(dst), asmgen.RegOperand(src)))
	}
	c := m.MustRun(seq)
	if c.ElimUops == 0 || c.ElimUops >= 60 {
		t.Fatalf("dependent MOV chain elimination = %d of 60, want partial elimination", c.ElimUops)
	}
}

func TestStoreLoadPair(t *testing.T) {
	t.Parallel()
	arch, m := skylake(t)
	store := lookup(t, arch, "MOV_M64_R64")
	load := lookup(t, arch, "MOV_R64_M64")
	addr := uint64(0x4000)
	var seq asmgen.Sequence
	for i := 0; i < 20; i++ {
		seq = append(seq, asmgen.MustInst(store,
			asmgen.MemOperand(isa.RAX, addr), asmgen.RegOperand(isa.RBX)))
		seq = append(seq, asmgen.MustInst(load,
			asmgen.RegOperand(isa.RBX), asmgen.MemOperand(isa.RAX, addr)))
	}
	c := m.MustRun(seq)
	// The load must see the stored value: the chain store->load->store...
	// cannot run at the independent-throughput rate.
	perPair := float64(c.Cycles) / 20
	if perPair < 3 {
		t.Fatalf("store/load chain: %.2f cycles per pair, expected a real dependency (>= ~4)", perPair)
	}
	// Store µops must appear on the store-data port.
	sd := arch.StoreDataPorts()[0]
	if c.PortUops[sd] == 0 {
		t.Errorf("no µops on store-data port %d", sd)
	}
}

func TestCountersPortTotalsConsistent(t *testing.T) {
	t.Parallel()
	arch, m := skylake(t)
	add := lookup(t, arch, "ADD_R64_R64")
	imul := lookup(t, arch, "IMUL_R64_R64")
	seq := asmgen.Sequence{
		asmgen.MustInst(add, asmgen.RegOperand(isa.RAX), asmgen.RegOperand(isa.RBX)),
		asmgen.MustInst(imul, asmgen.RegOperand(isa.RCX), asmgen.RegOperand(isa.RDX)),
	}
	c := m.MustRun(seq)
	sum := 0
	for _, n := range c.PortUops {
		sum += n
	}
	if sum != c.TotalUops {
		t.Fatalf("port sum %d != total %d", sum, c.TotalUops)
	}
	if c.IssuedUops != c.TotalUops+c.ElimUops {
		t.Fatalf("issued %d != total %d + eliminated %d", c.IssuedUops, c.TotalUops, c.ElimUops)
	}
	_ = arch
}

func TestValidateRejectsUnsupportedInstruction(t *testing.T) {
	t.Parallel()
	nehalem := uarch.Get(uarch.Nehalem)
	skl := uarch.Get(uarch.Skylake)
	m := New(nehalem)
	vadd := skl.InstrSet().Lookup("VADDPS_YMM_YMM_YMM")
	if vadd == nil {
		t.Fatal("VADDPS_YMM_YMM_YMM not found on Skylake")
	}
	seq := asmgen.Sequence{asmgen.MustInst(vadd,
		asmgen.RegOperand(isa.YMM0), asmgen.RegOperand(isa.YMM1), asmgen.RegOperand(isa.YMM2))}
	if err := m.Validate(seq); err == nil {
		t.Fatal("Validate accepted an AVX instruction on Nehalem")
	}
	if err := New(skl).Validate(seq); err != nil {
		t.Fatalf("Validate rejected a valid Skylake sequence: %v", err)
	}
}

func TestAESDECOperandPairLatencies(t *testing.T) {
	t.Parallel()
	// Section 7.3.1: on Sandy Bridge, a chain through the first operand of
	// AESDEC runs at 8 cycles per round, while a chain through the second
	// operand (with the first operand's dependency broken each iteration)
	// runs much faster.
	arch := uarch.Get(uarch.SandyBridge)
	m := New(arch)
	aesdec := lookup(t, arch, "AESDEC_XMM_XMM")
	pxor := lookup(t, arch, "PXOR_XMM_XMM")

	var chain1 asmgen.Sequence
	for i := 0; i < 20; i++ {
		chain1 = append(chain1, asmgen.MustInst(aesdec, asmgen.RegOperand(isa.XMM1), asmgen.RegOperand(isa.XMM2)))
	}
	c1 := m.MustRun(chain1)
	per1 := float64(c1.Cycles) / 20

	// Chain through operand 2: XMM1 is reset by a zero idiom each iteration
	// so only the XMM2 -> XMM1 path could carry a dependence; XMM2 is never
	// written, so the rounds are effectively independent.
	var chain2 asmgen.Sequence
	for i := 0; i < 20; i++ {
		chain2 = append(chain2, asmgen.MustInst(pxor, asmgen.RegOperand(isa.XMM1), asmgen.RegOperand(isa.XMM1)))
		chain2 = append(chain2, asmgen.MustInst(aesdec, asmgen.RegOperand(isa.XMM1), asmgen.RegOperand(isa.XMM2)))
	}
	c2 := m.MustRun(chain2)
	per2 := float64(c2.Cycles) / 20

	if per1 < 7 || per1 > 9 {
		t.Errorf("AESDEC first-operand chain: %.2f cycles/round, want about 8", per1)
	}
	if per2 > per1/2 {
		t.Errorf("AESDEC with broken first-operand dependency should be much faster: %.2f vs %.2f", per2, per1)
	}
}

func TestMachineCloneIsIndependent(t *testing.T) {
	t.Parallel()
	arch := uarch.Get(uarch.Skylake)
	div := lookup(t, arch, "DIV_R64")
	var seq asmgen.Sequence
	for i := 0; i < 20; i++ {
		seq = append(seq, asmgen.MustInst(div, asmgen.RegOperand(isa.RBX)))
	}
	m := NewWithConfig(arch, Config{SchedulerSize: 48})
	clone := m.Clone()
	if clone == m {
		t.Fatal("Clone returned the same machine")
	}
	if clone.Config() != m.Config() {
		t.Fatalf("clone config = %+v, want %+v", clone.Config(), m.Config())
	}
	// Switching the clone's divider-value regime must not leak into the
	// parent: this is what lets forked measurement stacks run concurrently.
	clone.SetDividerValues(FastDividerValues)
	if m.Config().DividerValues != SlowDividerValues {
		t.Fatal("clone's SetDividerValues mutated the parent machine")
	}
	cFast := clone.MustRun(seq)
	cSlow := m.MustRun(seq)
	if cFast.Cycles >= cSlow.Cycles {
		t.Fatalf("clone in fast regime (%d cycles) should beat parent in slow regime (%d cycles)",
			cFast.Cycles, cSlow.Cycles)
	}
}

// TestRunUndrainedIsError pins that a run cut short by MaxCycles returns an
// error naming the condition instead of truncated counters.
func TestRunUndrainedIsError(t *testing.T) {
	t.Parallel()
	arch := uarch.Get(uarch.Skylake)
	div := lookup(t, arch, "DIV_R64")
	var seq asmgen.Sequence
	for i := 0; i < 64; i++ {
		seq = append(seq, asmgen.MustInst(div, asmgen.RegOperand(isa.RBX)))
	}
	m := NewWithConfig(arch, Config{MaxCycles: 1000})
	c, err := m.Run(seq)
	if err == nil || !strings.Contains(err.Error(), "MaxCycles (1000)") {
		t.Fatalf("Run under MaxCycles 1000 = %+v, %v; want an error naming MaxCycles", c, err)
	}
	if _, err := New(arch).Run(seq); err != nil {
		t.Fatalf("the same sequence under the default MaxCycles: %v", err)
	}
	for i, shape := range []asmgen.Sequence{seqIndependentALU(arch), seqDependencyChain(arch),
		seqBlockingSequence(arch), seqLoadStoreMix(arch), seqWideIndependentWindow(arch),
		seqScatteredDeps(arch), seqPortUsageKernel(arch)} {
		if _, err := m.Run(shape); err != nil {
			t.Errorf("benchmark shape %d under MaxCycles 1000: %v", i, err)
		}
	}
}
