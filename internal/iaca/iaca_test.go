package iaca

import (
	"maps"
	"testing"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/isa"
	"uopsinfo/internal/uarch"
)

func TestVersionSupportMatrix(t *testing.T) {
	// Fourth column of Table 1.
	cases := map[uarch.Generation]string{
		uarch.Nehalem:     "2.1-2.2",
		uarch.Westmere:    "2.1-2.2",
		uarch.SandyBridge: "2.1-2.3",
		uarch.IvyBridge:   "2.1-2.3",
		uarch.Haswell:     "2.1-3.0",
		uarch.Broadwell:   "2.2-3.0",
		uarch.Skylake:     "2.3-3.0",
		uarch.KabyLake:    "-",
		uarch.CoffeeLake:  "-",
	}
	for gen, want := range cases {
		if got := DescribeVersions(gen); got != want {
			t.Errorf("DescribeVersions(%s) = %q, want %q", gen, got, want)
		}
	}
	if Supports(V30, uarch.Nehalem) {
		t.Error("IACA 3.0 should not support Nehalem")
	}
	if !Supports(V21, uarch.Haswell) {
		t.Error("IACA 2.1 should support Haswell")
	}
}

func TestNewRejectsUnsupportedPairs(t *testing.T) {
	if _, err := New(V30, uarch.Get(uarch.KabyLake)); err == nil {
		t.Error("New accepted Kaby Lake, which no IACA version supports")
	}
	if _, err := New(V21, uarch.Get(uarch.Skylake)); err == nil {
		t.Error("New accepted IACA 2.1 on Skylake")
	}
}

func TestParseVersion(t *testing.T) {
	if v, err := ParseVersion("2.3"); err != nil || v != V23 {
		t.Errorf("ParseVersion(2.3) = %v, %v", v, err)
	}
	if _, err := ParseVersion("9.9"); err == nil {
		t.Error("ParseVersion accepted an unknown version")
	}
}

func TestInjectedDiscrepancies(t *testing.T) {
	skl := uarch.Get(uarch.Skylake)
	hsw := uarch.Get(uarch.Haswell)
	nhm := uarch.Get(uarch.Nehalem)

	a30, err := New(V30, skl)
	if err != nil {
		t.Fatal(err)
	}
	a23, err := New(V23, skl)
	if err != nil {
		t.Fatal(err)
	}

	// BSWAP_R32 on Skylake: reported with 2 µops although the hardware has 1.
	if e, _ := a30.Entry("BSWAP_R32"); e.Uops != 2 {
		t.Errorf("BSWAP_R32 IACA µops = %d, want 2", e.Uops)
	}
	truth := skl.Perf(skl.InstrSet().Lookup("BSWAP_R32"))
	if truth.NumUops() != 1 {
		t.Fatalf("ground truth for BSWAP_R32 changed: %d µops", truth.NumUops())
	}

	// VHADDPD: per-port detail does not add up to the total µop count.
	if e, _ := a30.Entry("VHADDPD_XMM_XMM_XMM"); e.Uops == sumUsage(e.Usage) {
		t.Errorf("VHADDPD detail sum %d should differ from total %d", sumUsage(e.Usage), e.Uops)
	}

	// VMINPS: 2.3 reports p015, 3.0 reports p01.
	e23, _ := a23.Entry("VMINPS_XMM_XMM_XMM")
	e30, _ := a30.Entry("VMINPS_XMM_XMM_XMM")
	if _, ok := e23.Usage[uarch.NewPortSet(0, 1, 5)]; !ok {
		t.Errorf("IACA 2.3 VMINPS usage = %v, want a p015 entry", e23.Usage)
	}
	if _, ok := e30.Usage[uarch.NewPortSet(0, 1)]; !ok {
		t.Errorf("IACA 3.0 VMINPS usage = %v, want a p01 entry", e30.Usage)
	}

	// MOVQ2DQ on Skylake: both µops on port 5.
	if e, _ := a30.Entry("MOVQ2DQ_XMM_MM"); e.Usage[uarch.NewPortSet(5)] != 2 {
		t.Errorf("MOVQ2DQ IACA usage = %v, want 2*p5", e.Usage)
	}

	// SAHF on Haswell: 2.1 correct (p06), 2.2 p0156.
	h21, err := New(V21, hsw)
	if err != nil {
		t.Fatal(err)
	}
	h22, err := New(V22, hsw)
	if err != nil {
		t.Fatal(err)
	}
	s21, _ := h21.Entry("SAHF")
	s22, _ := h22.Entry("SAHF")
	if _, ok := s21.Usage[uarch.NewPortSet(0, 6)]; !ok {
		t.Errorf("IACA 2.1 SAHF usage = %v, want p06", s21.Usage)
	}
	if _, ok := s22.Usage[uarch.NewPortSet(0, 1, 5, 6)]; !ok {
		t.Errorf("IACA 2.2 SAHF usage = %v, want p0156", s22.Usage)
	}

	// MOVDQ2Q on Haswell: 2.1 correct, 2.2 wrong.
	m21, _ := h21.Entry("MOVDQ2Q_MM_XMM")
	m22, _ := h22.Entry("MOVDQ2Q_MM_XMM")
	if _, ok := m21.Usage[uarch.NewPortSet(5)]; !ok {
		t.Errorf("IACA 2.1 MOVDQ2Q usage = %v, want to include p5", m21.Usage)
	}
	if _, ok := m22.Usage[uarch.NewPortSet(0, 1)]; !ok {
		t.Errorf("IACA 2.2 MOVDQ2Q usage = %v, want to include p01", m22.Usage)
	}

	// IMUL with memory on Nehalem: the load µop is missing.
	n21, err := New(V21, nhm)
	if err != nil {
		t.Fatal(err)
	}
	imul, _ := n21.Entry("IMUL_R64_M64")
	truthIMUL := nhm.Perf(nhm.InstrSet().Lookup("IMUL_R64_M64"))
	if imul.Uops >= truthIMUL.NumUops() {
		t.Errorf("IACA IMUL r64,m64 µops = %d, want fewer than the true %d", imul.Uops, truthIMUL.NumUops())
	}

	// TEST with memory on Nehalem: spurious store µops.
	test, _ := n21.Entry("TEST_M64_R64")
	truthTEST := nhm.Perf(nhm.InstrSet().Lookup("TEST_M64_R64"))
	if test.Uops <= truthTEST.NumUops() {
		t.Errorf("IACA TEST m64,r64 µops = %d, want more than the true %d", test.Uops, truthTEST.NumUops())
	}
}

func TestEntriesAreDeterministic(t *testing.T) {
	skl := uarch.Get(uarch.Skylake)
	a1, err := New(V30, skl)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := New(V30, skl)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range skl.InstrSet().Instrs() {
		e1, _ := a1.Entry(in.Name)
		e2, _ := a2.Entry(in.Name)
		if e1.Uops != e2.Uops || !maps.Equal(e1.Usage, e2.Usage) {
			t.Fatalf("entry for %s differs between two identical analyzers", in.Name)
		}
	}
}

func TestMostEntriesMatchGroundTruth(t *testing.T) {
	// The background error rate must stay small: the paper's Table 1 reports
	// µop agreement above 84% and port agreement above 91%.
	skl := uarch.Get(uarch.Skylake)
	a, err := New(V30, skl)
	if err != nil {
		t.Fatal(err)
	}
	total, uopsMatch := 0, 0
	for _, in := range skl.InstrSet().Instrs() {
		if in.HasRep || in.HasLock {
			continue
		}
		e, ok := a.Entry(in.Name)
		if !ok {
			t.Fatalf("no entry for %s", in.Name)
		}
		total++
		if e.Uops == skl.Perf(in).NumUops() {
			uopsMatch++
		}
	}
	pct := 100 * float64(uopsMatch) / float64(total)
	if pct < 80 || pct > 99 {
		t.Errorf("µop agreement with ground truth = %.1f%%, want between 80%% and 99%%", pct)
	}
}

func TestAnalyzeIgnoresDependencies(t *testing.T) {
	skl := uarch.Get(uarch.Skylake)
	a, err := New(V30, skl)
	if err != nil {
		t.Fatal(err)
	}
	// CMC: predicted 0.25 cycles per iteration although the carry-flag
	// dependency makes 1 cycle the real limit (Section 7.2).
	cmc := skl.InstrSet().Lookup("CMC")
	rep, err := a.Analyze(asmgen.Sequence{asmgen.MustInst(cmc)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlockThroughput > 0.3 {
		t.Errorf("CMC block throughput = %.2f, want 0.25 (dependencies ignored)", rep.BlockThroughput)
	}
	// Store/load pair: predicted 1 cycle per iteration.
	store := skl.InstrSet().Lookup("MOV_M64_R64")
	load := skl.InstrSet().Lookup("MOV_R64_M64")
	pair := asmgen.Sequence{
		asmgen.MustInst(store, asmgen.MemOperand(isa.RAX, 0x1000), asmgen.RegOperand(isa.RBX)),
		asmgen.MustInst(load, asmgen.RegOperand(isa.RBX), asmgen.MemOperand(isa.RAX, 0x1000)),
	}
	repPair, err := a.Analyze(pair)
	if err != nil {
		t.Fatal(err)
	}
	if repPair.BlockThroughput > 1.2 {
		t.Errorf("store/load block throughput = %.2f, want about 1 (memory dependency ignored)", repPair.BlockThroughput)
	}
}

func TestAnalyzeLatencyOnlyIn21(t *testing.T) {
	hsw := uarch.Get(uarch.Haswell)
	add := hsw.InstrSet().Lookup("ADD_R64_R64")
	seq := asmgen.Sequence{asmgen.MustInst(add, asmgen.RegOperand(isa.RAX), asmgen.RegOperand(isa.RBX))}
	a21, _ := New(V21, hsw)
	a22, _ := New(V22, hsw)
	r21, err := a21.Analyze(seq)
	if err != nil {
		t.Fatal(err)
	}
	r22, err := a22.Analyze(seq)
	if err != nil {
		t.Fatal(err)
	}
	if !r21.HasLatency {
		t.Error("IACA 2.1 should report latency")
	}
	if r22.HasLatency {
		t.Error("IACA 2.2 should not report latency (support dropped)")
	}
}

func TestAnalyzeRejectsUnknownInstruction(t *testing.T) {
	skl := uarch.Get(uarch.Skylake)
	nhmOnly := uarch.Get(uarch.Skylake) // same arch, but fabricate a missing name by using a non-existent entry
	_ = nhmOnly
	a, _ := New(V30, skl)
	fake := &isa.Instr{Name: "FAKE_INSTR", Mnemonic: "FAKE",
		Operands: []isa.Operand{isa.RegOp("op1", isa.ClassGPR64, true, true)}}
	seq := asmgen.Sequence{asmgen.MustInst(fake, asmgen.RegOperand(isa.RAX))}
	if _, err := a.Analyze(seq); err == nil {
		t.Error("Analyze accepted an instruction that is not in the database")
	}
}

func TestRunAsMeasurementSubstrate(t *testing.T) {
	skl := uarch.Get(uarch.Skylake)
	a, _ := New(V30, skl)
	add := skl.InstrSet().Lookup("ADD_R64_R64")
	var seq asmgen.Sequence
	for i := 0; i < 8; i++ {
		seq = append(seq, asmgen.MustInst(add, asmgen.RegOperand(isa.RAX), asmgen.RegOperand(isa.RBX)))
	}
	c, err := a.Run(seq)
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalUops < 8 {
		t.Errorf("Run reported %d µops, want at least 8", c.TotalUops)
	}
	if c.Cycles < 2 {
		t.Errorf("Run reported %d cycles, want at least 2 (front-end bound)", c.Cycles)
	}
	if a.Arch() != skl {
		t.Error("Arch() does not return the targeted architecture")
	}
}
