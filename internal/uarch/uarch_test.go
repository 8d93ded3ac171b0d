package uarch

import (
	"strings"
	"testing"
	"testing/quick"

	"uopsinfo/internal/isa"
)

func TestAllGenerationsPresent(t *testing.T) {
	archs := All()
	if len(archs) != 9 {
		t.Fatalf("expected 9 generations, got %d", len(archs))
	}
	names := map[string]bool{}
	for _, a := range archs {
		names[a.Name()] = true
	}
	for _, want := range []string{"Nehalem", "Westmere", "Sandy Bridge", "Ivy Bridge",
		"Haswell", "Broadwell", "Skylake", "Kaby Lake", "Coffee Lake"} {
		if !names[want] {
			t.Errorf("generation %s missing", want)
		}
	}
}

func TestByName(t *testing.T) {
	a, err := ByName("Sandy Bridge")
	if err != nil || a.Gen() != SandyBridge {
		t.Fatalf("ByName(Sandy Bridge) = %v, %v", a, err)
	}
	if _, err := ByName("Pentium 4"); err == nil {
		t.Error("ByName accepted an unknown generation")
	}
}

func TestLookupGeneration(t *testing.T) {
	// URL-friendly spellings of the multi-word names must resolve: the HTTP
	// service feeds raw path segments through here.
	for _, name := range []string{"Sandy Bridge", "sandy-bridge", "SANDYBRIDGE", "sandy_bridge"} {
		g, err := LookupGeneration(name)
		if err != nil || g != SandyBridge {
			t.Errorf("LookupGeneration(%q) = %v, %v, want SandyBridge", name, g, err)
		}
	}
	for _, name := range []string{"", "Pentium 4", "skylake2", "-"} {
		if g, err := LookupGeneration(name); err == nil {
			t.Errorf("LookupGeneration(%q) = %v, want error", name, g)
		}
	}
	if _, err := LookupGeneration("Zen"); err == nil || !strings.Contains(err.Error(), "Skylake") {
		t.Errorf("unknown-generation error should list the known names, got %v", err)
	}
}

func TestLookupRejectsInvalidGeneration(t *testing.T) {
	for _, g := range []Generation{-1, numGenerations, 1000} {
		if a, err := Lookup(g); err == nil {
			t.Errorf("Lookup(%d) = %v, want error", int(g), a)
		}
		if g.Valid() {
			t.Errorf("Generation(%d).Valid() = true", int(g))
		}
	}
	for g := Generation(0); g < numGenerations; g++ {
		a, err := Lookup(g)
		if err != nil || a == nil || a.Gen() != g {
			t.Errorf("Lookup(%v) = %v, %v", g, a, err)
		}
	}
}

func TestPortCounts(t *testing.T) {
	for _, a := range All() {
		want := 6
		if a.Gen() >= Haswell {
			want = 8
		}
		if a.NumPorts() != want {
			t.Errorf("%s: %d ports, want %d", a.Name(), a.NumPorts(), want)
		}
		if a.Ports().Len() != want {
			t.Errorf("%s: Ports() holds %d ports, want %d", a.Name(), a.Ports().Len(), want)
		}
		if a.Machine().IssueWidth != 4 {
			t.Errorf("%s: issue width %d, want 4", a.Name(), a.Machine().IssueWidth)
		}
		if a.Machine().LoadLatency < 3 || a.Machine().LoadLatency > 6 {
			t.Errorf("%s: implausible load latency %d", a.Name(), a.Machine().LoadLatency)
		}
	}
}

func TestInstructionSetGrowsAcrossGenerations(t *testing.T) {
	prev := 0
	for _, a := range All() {
		n := a.InstrSet().Len()
		if n < prev {
			t.Errorf("%s has fewer variants (%d) than its predecessor (%d)", a.Name(), n, prev)
		}
		prev = n
	}
	nhm := Get(Nehalem).InstrSet().Len()
	skl := Get(Skylake).InstrSet().Len()
	if nhm < 800 || skl < 1800 {
		t.Errorf("variant counts too small: Nehalem %d, Skylake %d", nhm, skl)
	}
	if Get(Skylake).InstrSet().Len() != Get(CoffeeLake).InstrSet().Len() {
		t.Error("Skylake, Kaby Lake and Coffee Lake should expose the same instruction set")
	}
}

func TestExtensionSupport(t *testing.T) {
	if Get(Nehalem).Supports(isa.ExtAES) {
		t.Error("Nehalem should not support AES")
	}
	if !Get(Westmere).Supports(isa.ExtAES) {
		t.Error("Westmere should support AES")
	}
	if Get(IvyBridge).Supports(isa.ExtAVX2) {
		t.Error("Ivy Bridge should not support AVX2")
	}
	if !Get(Haswell).Supports(isa.ExtAVX2) || !Get(Haswell).Supports(isa.ExtFMA) {
		t.Error("Haswell should support AVX2 and FMA")
	}
	if !Get(SandyBridge).Supports(isa.ExtAVX) {
		t.Error("Sandy Bridge should support AVX")
	}
}

func TestPerfIsDefinedAndValidForAllVariants(t *testing.T) {
	for _, a := range All() {
		for _, in := range a.InstrSet().Instrs() {
			perf := a.Perf(in)
			if perf == nil {
				t.Fatalf("%s: no perf for %s", a.Name(), in.Name)
			}
			if len(perf.Uops) == 0 {
				t.Errorf("%s: %s has no µops", a.Name(), in.Name)
				continue
			}
			for ui := range perf.Uops {
				u := &perf.Uops[ui]
				if !u.Ports.SubsetOf(a.Ports()) {
					t.Errorf("%s: %s µop %d uses ports %s beyond the machine's %s", a.Name(), in.Name, ui, u.Ports, a.Ports())
				}
				if u.Latency < 0 || u.Latency > 200 {
					t.Errorf("%s: %s µop %d has implausible latency %d", a.Name(), in.Name, ui, u.Latency)
				}
				if len(u.WriteLat) > 0 && len(u.WriteLat) != len(u.Writes) {
					t.Errorf("%s: %s µop %d WriteLat length mismatch", a.Name(), in.Name, ui)
				}
			}
			if in.UsesDivider && !perf.Divider {
				t.Errorf("%s: %s is a divider instruction but its perf is not marked as such", a.Name(), in.Name)
			}
			if perf.Divider && perf.LatencyLowValues <= 0 {
				t.Errorf("%s: %s divider perf has no fast-value latency", a.Name(), in.Name)
			}
		}
	}
}

func TestPerfCaching(t *testing.T) {
	a := Get(Skylake)
	in := a.InstrSet().Lookup("ADD_R64_R64")
	if a.Perf(in) != a.Perf(in) {
		t.Error("Perf should return the cached pointer on repeated calls")
	}
}

func TestCaseStudyGroundTruths(t *testing.T) {
	// AESDEC: 3 µops on Westmere, 2 on Sandy Bridge/Ivy Bridge, 1 from
	// Haswell on (Section 7.3.1).
	for gen, want := range map[Generation]int{Westmere: 3, SandyBridge: 2, IvyBridge: 2, Haswell: 1, Skylake: 1} {
		a := Get(gen)
		perf, err := a.PerfByName("AESDEC_XMM_XMM")
		if err != nil {
			t.Fatalf("%s: %v", gen, err)
		}
		if perf.NumUops() != want {
			t.Errorf("%s: AESDEC has %d µops, want %d", gen, perf.NumUops(), want)
		}
	}
	// ADC on Haswell: 1*p0156 + 1*p06 (Section 5.1).
	adc, err := Get(Haswell).PerfByName("ADC_R64_R64")
	if err != nil {
		t.Fatal(err)
	}
	if got := adc.PortUsage().String(); got != "1*p06+1*p0156" {
		t.Errorf("Haswell ADC port usage = %s, want 1*p06+1*p0156", got)
	}
	// PBLENDVB on Nehalem: 2*p05 (Section 5.1).
	pb, err := Get(Nehalem).PerfByName("PBLENDVB_XMM_XMM")
	if err != nil {
		t.Fatal(err)
	}
	if got := pb.PortUsage().String(); got != "2*p05" {
		t.Errorf("Nehalem PBLENDVB port usage = %s, want 2*p05", got)
	}
	// MOVQ2DQ on Skylake: 1*p0 + 1*p015 (Section 7.3.3).
	mq, err := Get(Skylake).PerfByName("MOVQ2DQ_XMM_MM")
	if err != nil {
		t.Fatal(err)
	}
	if got := mq.PortUsage().String(); got != "1*p0+1*p015" {
		t.Errorf("Skylake MOVQ2DQ port usage = %s, want 1*p0+1*p015", got)
	}
	// MOVDQ2Q on Haswell: 1*p5 + 1*p015 (Section 7.3.4).
	md, err := Get(Haswell).PerfByName("MOVDQ2Q_MM_XMM")
	if err != nil {
		t.Fatal(err)
	}
	if got := md.PortUsage().String(); got != "1*p5+1*p015" {
		t.Errorf("Haswell MOVDQ2Q port usage = %s, want 1*p5+1*p015", got)
	}
	// BSWAP on Skylake: 1 µop for the 32-bit variant, 2 for the 64-bit one
	// (Section 7.2).
	b32, _ := Get(Skylake).PerfByName("BSWAP_R32")
	b64, _ := Get(Skylake).PerfByName("BSWAP_R64")
	if b32.NumUops() != 1 || b64.NumUops() != 2 {
		t.Errorf("Skylake BSWAP µops = %d/%d, want 1/2", b32.NumUops(), b64.NumUops())
	}
	// SHLD on Skylake has a same-register override with latency 1.
	shld, _ := Get(Skylake).PerfByName("SHLD_R64_R64_I8")
	if shld.SameRegOverride == nil {
		t.Error("Skylake SHLD should have a same-register override")
	}
	// SAHF on Haswell is a single µop on ports 0 and 6.
	sahf, _ := Get(Haswell).PerfByName("SAHF")
	if got := sahf.PortUsage().String(); got != "1*p06" {
		t.Errorf("Haswell SAHF port usage = %s, want 1*p06", got)
	}
}

func TestMaxLatencyBounds(t *testing.T) {
	a := Get(Skylake)
	perf, err := a.PerfByName("AESDEC_XMM_XMM")
	if err != nil {
		t.Fatal(err)
	}
	if perf.MaxLatency() < 4 {
		t.Errorf("AESDEC MaxLatency = %d, want >= 4", perf.MaxLatency())
	}
	add, _ := a.PerfByName("ADD_R64_R64")
	if add.MaxLatency() < 1 || add.MaxLatency() > 2 {
		t.Errorf("ADD MaxLatency = %d, want 1", add.MaxLatency())
	}
}

// Property: every µop write reference of every Skylake instruction refers to
// a written operand or an internal temporary, and every read reference to a
// readable operand or temporary.
func TestUopReferencesProperty(t *testing.T) {
	a := Get(Skylake)
	instrs := a.InstrSet().Instrs()
	f := func(idx uint16) bool {
		in := instrs[int(idx)%len(instrs)]
		perf := a.Perf(in)
		for ui := range perf.Uops {
			u := &perf.Uops[ui]
			for _, r := range u.Reads {
				if r.Kind == ValOperand && (r.Index < 0 || r.Index >= len(in.Operands)) {
					return false
				}
			}
			for _, w := range u.Writes {
				if w.Kind == ValOperand && (w.Index < 0 || w.Index >= len(in.Operands)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestLookupGenerationAllocs: resolving a generation name, in any spelling
// LookupGeneration accepts, allocates nothing, through ByName too.
func TestLookupGenerationAllocs(t *testing.T) {
	for _, name := range []string{"Skylake", "sandy-bridge", "COFFEE_LAKE"} {
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := ByName(name); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("ByName(%q) allocates %v times, want 0", name, allocs)
		}
	}
}

// TestFoldsToMatchesFold: foldsTo, the rune-by-rune comparison
// LookupGeneration makes, agrees with comparing the folded name, also for
// non-ASCII runes that lower-case to ASCII, invalid UTF-8 and names that
// fold to a prefix or an extension of a generation's.
func TestFoldsToMatchesFold(t *testing.T) {
	names := []string{"", "-", " _-", "Skylake", "SKY LAKE", "sky-lake-", "Skylak", "Skylakes",
		"Kaby Lake", "\u212Aaby Lake", "kaby\u0130ake", "Kaby\xffLake", "Coffee\u00a0Lake", "Coffee Lake", "Ivy Bridge", "ivybridge2"}
	for g := Generation(0); g < numGenerations; g++ {
		names = append(names, g.String(), strings.ToUpper(g.String()))
	}
	for _, name := range names {
		for _, folded := range foldedGenNames {
			if got, want := foldsTo(name, folded), foldGenName(name) == folded; got != want {
				t.Errorf("foldsTo(%q, %q) = %v, want %v", name, folded, got, want)
			}
		}
	}
}
