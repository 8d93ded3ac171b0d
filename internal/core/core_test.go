package core

import (
	"sync"
	"testing"

	"uopsinfo/internal/isa"
	"uopsinfo/internal/uarch"
)

// Characterizers are expensive to set up (blocking-instruction discovery
// measures hundreds of candidates), so tests share one per generation.
var (
	charMu    sync.Mutex
	charCache = map[uarch.Generation]*Characterizer{}
)

func charFor(t *testing.T, gen uarch.Generation) *Characterizer {
	t.Helper()
	charMu.Lock()
	defer charMu.Unlock()
	if c, ok := charCache[gen]; ok {
		return c
	}
	c := NewForArch(uarch.Get(gen))
	if err := c.ensureBlocking(); err != nil {
		t.Fatalf("discovering blocking instructions on %s: %v", gen, err)
	}
	charCache[gen] = c
	return c
}

func variant(t *testing.T, c *Characterizer, name string) *isa.Instr {
	t.Helper()
	in, err := c.gen.lookupVariant(name)
	if err != nil {
		t.Fatalf("lookup %s: %v", name, err)
	}
	return in
}

func TestBlockingInstructionsCoverCoreCombinations(t *testing.T) {
	c := charFor(t, uarch.Skylake)
	bs, err := c.Blocking()
	if err != nil {
		t.Fatal(err)
	}
	// The ALU, shuffle, load and store combinations must be present for the
	// SSE set on Skylake.
	for _, combo := range []uarch.PortSet{uarch.NewPortSet(0, 1, 5, 6), uarch.NewPortSet(5), uarch.NewPortSet(2, 3), uarch.NewPortSet(4)} {
		if _, ok := bs.SSE[combo]; !ok {
			t.Errorf("no SSE blocking instruction for port combination p%s (have %v)", combo, uarch.AppendSorted(nil, bs.SSE))
		}
	}
	// Blocking instructions must be 1-µop instructions bound to exactly the
	// advertised combination according to the ground truth.
	for key, b := range bs.SSE {
		perf := c.Arch().Perf(b.Instr)
		truth := GroundTruthUsage(perf)
		if b.Instr.Mnemonic == "MOV" && b.Instr.WritesMemory() {
			continue // the store blocking instruction has two µops by design
		}
		if b.Instr.Mnemonic == "MOV" && b.Instr.ReadsMemory() {
			continue // the load blocking instruction
		}
		if len(truth) != 1 {
			t.Errorf("blocking instruction %s for p%s is not a single-combination instruction: %v",
				b.Instr.Name, key, truth)
		}
	}
}

func TestBlockingSetsSeparateSSEAndAVX(t *testing.T) {
	c := charFor(t, uarch.Skylake)
	bs, err := c.Blocking()
	if err != nil {
		t.Fatal(err)
	}
	for key, b := range bs.SSE {
		if b.Instr.Extension.IsAVX() {
			t.Errorf("SSE blocking set contains AVX instruction %s for p%s", b.Instr.Name, key)
		}
	}
	for key, b := range bs.AVX {
		if b.Instr.Extension.IsSSE() {
			t.Errorf("AVX blocking set contains SSE instruction %s for p%s", b.Instr.Name, key)
		}
	}
}

// TestPortUsageString pins the paper's notation: combinations by size, then
// lexicographically; whole µop counts as integers, fractional ones with two
// decimals, as a measurement that does not divide evenly reports them.
func TestPortUsageString(t *testing.T) {
	for _, tc := range []struct {
		pu   PortUsage
		want string
	}{
		{nil, "0"},
		{PortUsage{uarch.NewPortSet(0, 1, 5, 6): 1, uarch.NewPortSet(0, 6): 1}, "1*p06+1*p0156"},
		{PortUsage{uarch.NewPortSet(2, 3): 0.5, uarch.NewPortSet(4): 1, uarch.NewPortSet(0, 1, 5): 2.25, uarch.NewPortSet(5): 1.0 / 3}, "1*p4+0.33*p5+0.50*p23+2.25*p015"},
		{PortUsage{uarch.NewPortSet(2, 3, 7): 1.5, uarch.NewPortSet(0, 5): 12}, "12*p05+1.50*p237"},
	} {
		if got := tc.pu.String(); got != tc.want {
			t.Errorf("%#v.String() = %q, want %q", tc.pu, got, tc.want)
		}
	}
}

func TestPortUsageSimpleALU(t *testing.T) {
	c := charFor(t, uarch.Skylake)
	in := variant(t, c, "ADD_R64_R64")
	pu, err := c.PortUsage(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := GroundTruthUsage(c.Arch().Perf(in))
	if !pu.Equal(want) {
		t.Fatalf("ADD_R64_R64 port usage = %v, want %v", pu, want)
	}
}

func TestPortUsageMOVQ2DQSkylake(t *testing.T) {
	// Section 7.3.3: MOVQ2DQ on Skylake is 1*p0 + 1*p015, which an
	// isolation-based measurement cannot distinguish from 1*p0 + 1*p15.
	c := charFor(t, uarch.Skylake)
	in := variant(t, c, "MOVQ2DQ_XMM_MM")
	pu, err := c.PortUsage(in, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pu.String(), "1*p0+1*p015"; got != want {
		t.Fatalf("MOVQ2DQ port usage = %s, want %s", got, want)
	}
}

func TestPortUsageADCHaswell(t *testing.T) {
	// Section 5.1: ADC on Haswell is 1*p0156 + 1*p06, not 2*p0156.
	c := charFor(t, uarch.Haswell)
	in := variant(t, c, "ADC_R64_R64")
	pu, err := c.PortUsage(in, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pu.String(), "1*p06+1*p0156"; got != want {
		t.Fatalf("ADC port usage = %s, want %s", got, want)
	}
}

func TestPortUsagePBLENDVBNehalem(t *testing.T) {
	// Section 5.1: PBLENDVB on Nehalem is 2*p05, although in isolation one
	// µop appears on port 0 and one on port 5.
	c := charFor(t, uarch.Nehalem)
	in := variant(t, c, "PBLENDVB_XMM_XMM")
	pu, err := c.PortUsage(in, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pu.String(), "2*p05"; got != want {
		t.Fatalf("PBLENDVB port usage = %s, want %s", got, want)
	}
}

func TestPortUsageStoreInstruction(t *testing.T) {
	c := charFor(t, uarch.Skylake)
	in := variant(t, c, "MOV_M64_R64")
	pu, err := c.PortUsage(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := GroundTruthUsage(c.Arch().Perf(in))
	if !pu.Equal(want) {
		t.Fatalf("MOV_M64_R64 port usage = %v, want %v", pu, want)
	}
}

func TestPortUsageMatchesGroundTruthSample(t *testing.T) {
	// A broader sample of instructions on Skylake: the inferred port usage
	// must match the simulator's ground truth.
	c := charFor(t, uarch.Skylake)
	names := []string{
		"SUB_R32_R32", "IMUL_R64_R64", "LEA_R64_M64", "POPCNT_R64_R64",
		"PADDD_XMM_XMM", "PSHUFD_XMM_XMM_I8", "MULPS_XMM_XMM",
		"VADDPS_YMM_YMM_YMM", "PAND_XMM_XMM", "MOV_R64_M64",
	}
	for _, name := range names {
		in := variant(t, c, name)
		pu, err := c.PortUsage(in, 0)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		want := GroundTruthUsage(c.Arch().Perf(in))
		if !pu.Equal(want) {
			t.Errorf("%s: port usage = %v, want %v", name, pu, want)
		}
	}
}

func TestLatencyAESDECSandyBridge(t *testing.T) {
	// Section 7.3.1: on Sandy Bridge, lat(XMM1, XMM1) is 8 cycles but
	// lat(XMM2, XMM1) is only about 1 cycle, because the round key is only
	// needed for the final XOR.
	c := charFor(t, uarch.SandyBridge)
	in := variant(t, c, "AESDEC_XMM_XMM")
	lat, err := c.Latency(in)
	if err != nil {
		t.Fatal(err)
	}
	p00, ok := lat.Lookup(0, 0)
	if !ok {
		t.Fatal("no latency for operand pair (op1, op1)")
	}
	p10, ok := lat.Lookup(1, 0)
	if !ok {
		t.Fatal("no latency for operand pair (op2, op1)")
	}
	if p00.Cycles < 7.5 || p00.Cycles > 8.5 {
		t.Errorf("lat(op1, op1) = %.2f, want 8", p00.Cycles)
	}
	if p10.Cycles > 2.5 {
		t.Errorf("lat(op2, op1) = %.2f, want about 1", p10.Cycles)
	}
}

func TestLatencyAESDECHaswell(t *testing.T) {
	// On Haswell both operand pairs have a latency of 7 cycles.
	c := charFor(t, uarch.Haswell)
	in := variant(t, c, "AESDEC_XMM_XMM")
	lat, err := c.Latency(in)
	if err != nil {
		t.Fatal(err)
	}
	p00, _ := lat.Lookup(0, 0)
	p10, _ := lat.Lookup(1, 0)
	if p00.Cycles < 6.5 || p00.Cycles > 7.5 {
		t.Errorf("lat(op1, op1) = %.2f, want 7", p00.Cycles)
	}
	if p10.Cycles < 6.5 || p10.Cycles > 7.5 {
		t.Errorf("lat(op2, op1) = %.2f, want 7", p10.Cycles)
	}
}

func TestLatencySHLDNehalem(t *testing.T) {
	// Section 7.3.2: on Nehalem, lat(R1, R1) is 3 cycles and lat(R2, R1) is
	// 4 cycles, which explains why prior publications disagree.
	c := charFor(t, uarch.Nehalem)
	in := variant(t, c, "SHLD_R64_R64_I8")
	lat, err := c.Latency(in)
	if err != nil {
		t.Fatal(err)
	}
	p00, ok := lat.Lookup(0, 0)
	if !ok {
		t.Fatal("no latency for (op1, op1)")
	}
	p10, ok := lat.Lookup(1, 0)
	if !ok {
		t.Fatal("no latency for (op2, op1)")
	}
	if p00.Cycles < 2.5 || p00.Cycles > 3.5 {
		t.Errorf("lat(R1, R1) = %.2f, want 3", p00.Cycles)
	}
	if p10.Cycles < 3.5 || p10.Cycles > 4.5 {
		t.Errorf("lat(R2, R1) = %.2f, want 4", p10.Cycles)
	}
}

func TestLatencySHLDSkylakeSameRegister(t *testing.T) {
	// Section 7.3.2: on Skylake the latency is 3 cycles with distinct
	// registers but 1 cycle when the same register is used for both
	// operands.
	c := charFor(t, uarch.Skylake)
	in := variant(t, c, "SHLD_R64_R64_I8")
	lat, err := c.Latency(in)
	if err != nil {
		t.Fatal(err)
	}
	p10, ok := lat.Lookup(1, 0)
	if !ok {
		t.Fatal("no latency for (op2, op1)")
	}
	if p10.Cycles < 2.5 || p10.Cycles > 3.5 {
		t.Errorf("lat(R2, R1) = %.2f, want 3", p10.Cycles)
	}
	var sameReg *OperandPairLatency
	for i := range lat.Pairs {
		if lat.Pairs[i].SameRegister && lat.Pairs[i].Source == 1 && lat.Pairs[i].Dest == 0 {
			sameReg = &lat.Pairs[i]
		}
	}
	if sameReg == nil {
		t.Fatal("no same-register measurement for (op2, op1)")
	}
	if sameReg.Cycles > 1.5 {
		t.Errorf("same-register latency = %.2f, want 1", sameReg.Cycles)
	}
}

func TestLatencyMemoryOperand(t *testing.T) {
	c := charFor(t, uarch.Skylake)
	in := variant(t, c, "ADD_R64_M64")
	lat, err := c.Latency(in)
	if err != nil {
		t.Fatal(err)
	}
	// The memory -> register latency should be at least the load latency.
	p10, ok := lat.Lookup(1, 0)
	if !ok {
		t.Fatal("no latency for (mem, reg)")
	}
	if p10.Cycles < float64(c.Arch().Machine().LoadLatency) {
		t.Errorf("memory-to-register latency %.2f below load latency %d", p10.Cycles, c.Arch().Machine().LoadLatency)
	}
	// The register -> register latency is 1 cycle.
	p00, ok := lat.Lookup(0, 0)
	if !ok {
		t.Fatal("no latency for (reg, reg)")
	}
	if p00.Cycles < 0.5 || p00.Cycles > 1.5 {
		t.Errorf("register self latency = %.2f, want 1", p00.Cycles)
	}
}

func TestLatencyFlagsToRegisterCMOV(t *testing.T) {
	c := charFor(t, uarch.Skylake)
	in := variant(t, c, "CMOVZ_R64_R64")
	lat, err := c.Latency(in)
	if err != nil {
		t.Fatal(err)
	}
	flagsIdx := in.OperandIndex("FLAGS")
	if flagsIdx < 0 {
		t.Fatal("CMOVZ has no FLAGS operand")
	}
	p, ok := lat.Lookup(flagsIdx, 0)
	if !ok {
		t.Fatal("no latency for (flags, reg)")
	}
	if p.Cycles < 0.5 || p.Cycles > 2.5 {
		t.Errorf("flags-to-register latency = %.2f, want 1-2", p.Cycles)
	}
}

func TestLatencyDividerValueDependent(t *testing.T) {
	c := charFor(t, uarch.Skylake)
	in := variant(t, c, "DIV_R64")
	lat, err := c.Latency(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(lat.Pairs) == 0 {
		t.Fatal("no latency pairs for DIV_R64")
	}
	p := lat.Pairs[0]
	if p.FastValueCycles <= 0 {
		t.Fatal("divider latency has no fast-value measurement")
	}
	if p.FastValueCycles >= p.Cycles {
		t.Errorf("fast-value latency %.2f should be below slow-value latency %.2f", p.FastValueCycles, p.Cycles)
	}
	if p.Cycles < 10 {
		t.Errorf("DIV_R64 latency %.2f is implausibly low", p.Cycles)
	}
}

func TestThroughputADDSkylake(t *testing.T) {
	c := charFor(t, uarch.Skylake)
	in := variant(t, c, "ADD_R64_R64")
	pu, err := c.PortUsage(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := c.Throughput(in, pu)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Measured < 0.2 || tp.Measured > 0.4 {
		t.Errorf("measured throughput = %.3f, want about 0.25", tp.Measured)
	}
	if tp.Computed < 0.2 || tp.Computed > 0.3 {
		t.Errorf("computed throughput = %.3f, want 0.25", tp.Computed)
	}
}

func TestThroughputCMCImplicitDependency(t *testing.T) {
	// Section 7.2: CMC reads and writes the carry flag, so its measured
	// throughput (Definition 2) is 1 cycle, while the port-usage-based
	// throughput (Definition 1) is 0.25 on Skylake. IACA reports 0.25, which
	// is impossible to observe in practice.
	c := charFor(t, uarch.Skylake)
	in := variant(t, c, "CMC")
	pu, err := c.PortUsage(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := c.Throughput(in, pu)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Measured < 0.9 {
		t.Errorf("measured CMC throughput = %.3f, want about 1 (carry-flag dependency)", tp.Measured)
	}
	if tp.Computed > 0.3 {
		t.Errorf("computed CMC throughput = %.3f, want 0.25", tp.Computed)
	}
}

func TestThroughputDividerValues(t *testing.T) {
	c := charFor(t, uarch.Skylake)
	in := variant(t, c, "DIV_R32")
	tp, err := c.Throughput(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tp.FastValueMeasured <= 0 {
		t.Fatal("no fast-value throughput for DIV_R32")
	}
	if tp.FastValueMeasured >= tp.Measured {
		t.Errorf("fast-value throughput %.2f should be below slow-value throughput %.2f",
			tp.FastValueMeasured, tp.Measured)
	}
}

func TestCharacterizeInstrEndToEnd(t *testing.T) {
	c := charFor(t, uarch.Skylake)
	in := variant(t, c, "IMUL_R64_R64")
	res, err := c.CharacterizeInstr(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != "" {
		t.Fatalf("IMUL_R64_R64 unexpectedly skipped: %s", res.Skipped)
	}
	if res.Uops < 0.5 || res.Uops > 1.5 {
		t.Errorf("IMUL µops = %.2f, want 1", res.Uops)
	}
	p00, ok := res.Latency.Lookup(0, 0)
	if !ok || p00.Cycles < 2.5 || p00.Cycles > 3.5 {
		t.Errorf("IMUL latency = %+v, want 3", p00)
	}
	if res.Throughput.Computed < 0.9 || res.Throughput.Computed > 1.1 {
		t.Errorf("IMUL computed throughput = %.2f, want 1 (single port)", res.Throughput.Computed)
	}
}

func TestCharacterizeAllSubset(t *testing.T) {
	c := charFor(t, uarch.Skylake)
	names := []string{"ADD_R64_R64", "IMUL_R64_R64", "PXOR_XMM_XMM", "CPUID", "JZ_I32"}
	res, err := c.CharacterizeAll(Options{Only: names})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != len(names) {
		t.Fatalf("got %d results, want %d", len(res.Results), len(names))
	}
	if res.Results["CPUID"].Skipped == "" {
		t.Error("CPUID should be marked as skipped (system instruction)")
	}
	if res.Results["JZ_I32"].Skipped == "" {
		t.Error("JZ_I32 should be marked as skipped (control flow)")
	}
	if res.Results["ADD_R64_R64"].Skipped != "" {
		t.Errorf("ADD_R64_R64 unexpectedly skipped: %s", res.Results["ADD_R64_R64"].Skipped)
	}
}

func TestZeroIdiomDetection(t *testing.T) {
	// Section 7.3.6: the PCMPGT instructions are dependency-breaking idioms.
	// With the same register for both operands, the measured "latency" of
	// the dependency chain collapses.
	c := charFor(t, uarch.Skylake)
	in := variant(t, c, "PCMPGTD_XMM_XMM")
	lat, err := c.Latency(in)
	if err != nil {
		t.Fatal(err)
	}
	var distinct, same float64
	var haveSame bool
	for _, p := range lat.Pairs {
		if p.Source == 1 && p.Dest == 0 {
			if p.SameRegister {
				same = p.Cycles
				haveSame = true
			} else {
				distinct = p.Cycles
			}
		}
	}
	if !haveSame {
		t.Fatal("no same-register measurement for PCMPGTD")
	}
	if same >= distinct && same > 0.5 {
		t.Errorf("same-register latency %.2f should collapse below distinct-register latency %.2f (dependency-breaking idiom)",
			same, distinct)
	}
}
