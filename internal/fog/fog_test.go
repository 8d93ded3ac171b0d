package fog

import (
	"testing"

	"uopsinfo/internal/measure"
	"uopsinfo/internal/pipesim"
	"uopsinfo/internal/uarch"
)

func baselineFor(gen uarch.Generation) (*Baseline, *uarch.Arch) {
	arch := uarch.Get(gen)
	return New(measure.New(pipesim.New(arch))), arch
}

func TestAttributePortsHeuristics(t *testing.T) {
	cases := []struct {
		name string
		obs  PortObservation
		want string
	}{
		{
			// MOVQ2DQ-like observation: 1 µop on port 0, half a µop each on
			// ports 1 and 5 -> attributed as 1*p0 + 1*p15.
			name: "integer plus split",
			obs:  PortObservation{PerPort: []float64{1, 0.5, 0, 0, 0, 0.5, 0, 0}, Total: 2},
			want: "1*p0+1*p15",
		},
		{
			// ADC-on-Haswell-like observation: half a µop on each of four
			// ports -> attributed as 2*p0156.
			name: "all fractional",
			obs:  PortObservation{PerPort: []float64{0.5, 0.5, 0, 0, 0, 0.5, 0.5, 0}, Total: 2},
			want: "2*p0156",
		},
		{
			// PBLENDVB-on-Nehalem-like observation: one µop each on ports 0
			// and 5 -> attributed as 1*p0 + 1*p5 (which is wrong; the true
			// usage is 2*p05).
			name: "two whole ports",
			obs:  PortObservation{PerPort: []float64{1, 0, 0, 0, 0, 1}, Total: 2},
			want: "1*p0+1*p5",
		},
	}
	for _, tc := range cases {
		got := AttributePorts(tc.obs).String()
		if got != tc.want {
			t.Errorf("%s: AttributePorts = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestIsolationAttributionDiffersFromTruthForMOVQ2DQ(t *testing.T) {
	// Section 7.3.3: the isolation-based approach cannot see that the second
	// µop of MOVQ2DQ can also use port 0.
	b, arch := baselineFor(uarch.Skylake)
	in := arch.InstrSet().Lookup("MOVQ2DQ_XMM_MM")
	usage, err := b.PortUsageIsolation(in)
	if err != nil {
		t.Fatal(err)
	}
	got := usage.String()
	if got == "1*p0+1*p015" {
		t.Errorf("isolation-based attribution unexpectedly produced the correct usage %s", got)
	}
	if got != "1*p0+1*p15" && got != "2*p015" {
		t.Logf("note: isolation attribution produced %s", got)
	}
}

func TestLatencyConventionsSHLDSkylake(t *testing.T) {
	// Section 7.3.2: with distinct registers the latency is 3 cycles (what
	// Agner Fog reports); with the same register it is 1 cycle (what
	// Granlund and AIDA64 report).
	b, arch := baselineFor(uarch.Skylake)
	in := arch.InstrSet().Lookup("SHLD_R64_R64_I8")
	distinct, err := b.LatencyDistinctRegisters(in)
	if err != nil {
		t.Fatal(err)
	}
	same, err := b.LatencySameRegister(in)
	if err != nil {
		t.Fatal(err)
	}
	if distinct < 2.5 || distinct > 3.5 {
		t.Errorf("distinct-register latency = %.2f, want 3", distinct)
	}
	if same > 1.5 {
		t.Errorf("same-register latency = %.2f, want 1", same)
	}
}

func TestLatencyConventionsSHLDNehalem(t *testing.T) {
	// On Nehalem the same-register convention measures the maximum pair
	// latency (4), the distinct-register convention the implicit
	// read-modify-write pair (3).
	b, arch := baselineFor(uarch.Nehalem)
	in := arch.InstrSet().Lookup("SHLD_R64_R64_I8")
	distinct, err := b.LatencyDistinctRegisters(in)
	if err != nil {
		t.Fatal(err)
	}
	same, err := b.LatencySameRegister(in)
	if err != nil {
		t.Fatal(err)
	}
	if distinct < 2.5 || distinct > 3.5 {
		t.Errorf("distinct-register latency = %.2f, want 3 (Fog's value)", distinct)
	}
	if same < 3.5 || same > 4.5 {
		t.Errorf("same-register latency = %.2f, want 4 (Granlund/AIDA64's value)", same)
	}
}

func TestThroughputBaseline(t *testing.T) {
	b, arch := baselineFor(uarch.Skylake)
	in := arch.InstrSet().Lookup("ADD_R64_R64")
	tp, err := b.Throughput(in, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tp < 0.2 || tp > 0.4 {
		t.Errorf("ADD throughput = %.3f, want about 0.25", tp)
	}
	// CMC has an implicit carry-flag dependency the naive measurement cannot
	// break.
	cmc := arch.InstrSet().Lookup("CMC")
	tpCMC, err := b.Throughput(cmc, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tpCMC < 0.9 {
		t.Errorf("CMC naive throughput = %.3f, want about 1", tpCMC)
	}
}

func TestObservePortsTotals(t *testing.T) {
	b, arch := baselineFor(uarch.Skylake)
	in := arch.InstrSet().Lookup("ADD_R64_M64")
	obs, err := b.ObservePorts(in, 4)
	if err != nil {
		t.Fatal(err)
	}
	if obs.Total < 1.5 || obs.Total > 2.5 {
		t.Errorf("ADD r,m observed %.2f µops, want 2", obs.Total)
	}
	sum := 0.0
	for _, u := range obs.PerPort {
		sum += u
	}
	if sum < 1.5 || sum > 2.5 {
		t.Errorf("per-port sum = %.2f, want 2", sum)
	}
}
