package xmlout

import (
	"bytes"
	"strings"
	"testing"

	"uopsinfo/internal/core"
	"uopsinfo/internal/iaca"
	"uopsinfo/internal/uarch"
)

func sampleResult() *core.ArchResult {
	res := core.NewArchResult("Skylake")
	res.Results["ADD_R64_R64"] = &core.InstrResult{
		Name: "ADD_R64_R64", Mnemonic: "ADD",
		Uops: 1, UopsIssued: 1,
		Ports: core.PortUsage{uarch.NewPortSet(0, 1, 5, 6): 1},
		Latency: core.LatencyResult{Pairs: []core.OperandPairLatency{
			{Source: 0, Dest: 0, SourceName: "op1", DestName: "op1", Cycles: 1, Notes: "self chain"},
			{Source: 1, Dest: 0, SourceName: "op2", DestName: "op1", Cycles: 1, Notes: "MOVSX chain"},
		}},
		Throughput: core.ThroughputResult{Measured: 0.25, Computed: 0.25, MeasuredSequenceLength: 8},
	}
	res.Results["CPUID"] = &core.InstrResult{
		Name: "CPUID", Mnemonic: "CPUID", Uops: 14, UopsIssued: 14, Skipped: "system instruction",
	}
	res.Results["DIV_R64"] = &core.InstrResult{
		Name: "DIV_R64", Mnemonic: "DIV", Uops: 3, UopsIssued: 3,
		Ports: core.PortUsage{uarch.NewPortSet(0): 1, uarch.NewPortSet(0, 1, 5, 6): 2},
		Latency: core.LatencyResult{Pairs: []core.OperandPairLatency{
			{Source: 1, Dest: 1, SourceName: "RAX", DestName: "RAX", Cycles: 38, FastValueCycles: 26,
				Notes: "AND/OR value-pinned chain"},
		}},
		Throughput: core.ThroughputResult{Measured: 24, FastValueMeasured: 14},
	}
	return res
}

func TestXMLRoundTrip(t *testing.T) {
	t.Parallel()
	skl := uarch.Get(uarch.Skylake)
	a30, err := iaca.New(iaca.V30, skl)
	if err != nil {
		t.Fatal(err)
	}
	doc := &Document{Architectures: []Architecture{FromArchResult(sampleResult(), []*iaca.Analyzer{a30})}}

	var buf bytes.Buffer
	if err := Write(&buf, doc); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{`name="Skylake"`, `name="ADD_R64_R64"`, `ports="1*p0156"`,
		`skipped="system instruction"`, `version="3.0"`, `cyclesFastValues="26"`} {
		if !strings.Contains(text, want) {
			t.Errorf("XML output missing %q:\n%s", want, text)
		}
	}

	back, err := Read(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Architectures) != 1 {
		t.Fatalf("round trip lost architectures: %d", len(back.Architectures))
	}
	arch := back.Architectures[0]
	add := arch.Lookup("ADD_R64_R64")
	if add == nil {
		t.Fatal("ADD_R64_R64 missing after round trip")
	}
	if add.Measured == nil || add.Measured.Uops != 1 || add.Measured.Ports != "1*p0156" {
		t.Errorf("ADD_R64_R64 measurement lost: %+v", add.Measured)
	}
	if len(add.Measured.Latencies) != 2 {
		t.Errorf("ADD_R64_R64 has %d latency entries, want 2", len(add.Measured.Latencies))
	}
	if len(add.IACA) != 1 || add.IACA[0].Version != "3.0" {
		t.Errorf("ADD_R64_R64 IACA entries = %+v", add.IACA)
	}
	div := arch.Lookup("DIV_R64")
	if div == nil || div.Measured.Latencies[0].FastValues != 26 {
		t.Error("DIV_R64 fast-value latency lost in round trip")
	}
	if arch.Lookup("NOPE") != nil {
		t.Error("Lookup found a non-existent instruction")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	t.Parallel()
	if _, err := Read(strings.NewReader("{json: true}")); err == nil {
		t.Error("Read accepted non-XML input")
	}
}
