package xmlout

import (
	"bytes"
	"crypto/sha256"
	"encoding/xml"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"uopsinfo/internal/core"
	"uopsinfo/internal/engine"
	"uopsinfo/internal/iaca"
	"uopsinfo/internal/uarch"
)

// referenceXML renders doc with encoding/xml's encoder, the reference
// Write's bytes must equal: xml.Header, then the document indented two
// spaces per level, with the architectures sorted by name as Write sorts
// them.
func referenceXML(tb testing.TB, doc *Document) []byte {
	tb.Helper()
	sort.Slice(doc.Architectures, func(i, j int) bool {
		return doc.Architectures[i].Name < doc.Architectures[j].Name
	})
	var buf bytes.Buffer
	buf.WriteString(xml.Header)
	enc := xml.NewEncoder(&buf)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		tb.Fatalf("encoding/xml: %v", err)
	}
	return buf.Bytes()
}

// checkWrite requires Write to render doc to the reference's bytes. Both
// sort the architecture list in place, so each renders its own copy.
func checkWrite(tb testing.TB, what string, doc *Document) {
	tb.Helper()
	want := referenceXML(tb, &Document{Architectures: slices.Clone(doc.Architectures)})
	var got bytes.Buffer
	if err := Write(&got, &Document{Architectures: slices.Clone(doc.Architectures)}); err != nil {
		tb.Fatalf("%s: %v", what, err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	g := got.Bytes()
	i := 0
	for i < len(g) && i < len(want) && g[i] == want[i] {
		i++
	}
	from := max(0, i-60)
	tb.Errorf("%s: Write's %d bytes differ from encoding/xml's %d at byte %d:\n got …%q…\nwant …%q…",
		what, len(g), len(want), i, g[from:min(len(g), i+60)], want[from:min(len(want), i+60)])
}

// isaRun is every generation's full-ISA result from one engine with the
// generation's IACA analyzers, characterized once per test binary.
var isaRun struct {
	once      sync.Once
	results   []*core.ArchResult
	analyzers [][]*iaca.Analyzer
	err       error
}

func fullISA(tb testing.TB) ([]*core.ArchResult, [][]*iaca.Analyzer) {
	tb.Helper()
	isaRun.once.Do(func() {
		eng, err := engine.New(engine.Config{Workers: 2})
		if err != nil {
			isaRun.err = err
			return
		}
		for _, arch := range uarch.All() {
			res, err := eng.CharacterizeArch(arch.Gen(), engine.RunOptions{})
			if err != nil {
				isaRun.err = err
				return
			}
			an, err := analyzersFor(arch)
			if err != nil {
				isaRun.err = err
				return
			}
			isaRun.results = append(isaRun.results, res)
			isaRun.analyzers = append(isaRun.analyzers, an)
		}
	})
	if isaRun.err != nil {
		tb.Fatal(isaRun.err)
	}
	return isaRun.results, isaRun.analyzers
}

func analyzersFor(arch *uarch.Arch) ([]*iaca.Analyzer, error) {
	var out []*iaca.Analyzer
	for _, v := range iaca.SupportedVersions(arch.Gen()) {
		a, err := iaca.New(v, arch)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// TestWriteMatchesEncodingXML holds Write to encoding/xml's bytes on every
// generation's full-ISA result, with and without its analyzers, on all of
// them in one document, and on hand-built documents at the edges of the
// model.
func TestWriteMatchesEncodingXML(t *testing.T) {
	results, analyzers := fullISA(t)
	var all []Architecture
	for i, res := range results {
		with := FromArchResult(res, analyzers[i])
		checkWrite(t, res.Arch+" with IACA", Single(with))
		checkWrite(t, res.Arch+" without IACA", Single(FromArchResult(res, nil)))
		all = append(all, with)
	}
	checkWrite(t, "all generations", &Document{Architectures: all})

	negZero := math.Copysign(0, -1)
	edges := []struct {
		what string
		doc  *Document
	}{
		{"empty document", &Document{}},
		{"architecture without instructions", Single(Architecture{Name: "Skylake"})},
		{"architectures out of order", &Document{Architectures: []Architecture{
			{Name: "Skylake"},
			{Name: "Haswell", Instructions: []Instruction{{Name: "NOP", Mnemonic: "NOP"}}},
			{Name: "Broadwell"},
			{Name: "Coffee Lake", Instructions: []Instruction{{Name: "ADD_R64_R64", Mnemonic: "ADD",
				Measured: &Measured{Uops: 1}}}},
		}}},
		{"bare instructions", Single(Architecture{Name: "Nehalem", Instructions: []Instruction{
			{Name: "CPUID", Mnemonic: "CPUID", Skipped: "system instruction"},
			{Name: "NOP", Mnemonic: "NOP", Measured: &Measured{}},
			{Name: "PAUSE", Mnemonic: "PAUSE", IACA: []IACAOut{{Version: "2.1"}}},
			{},
		}})},
		{"every attribute", Single(Architecture{Name: "Haswell", Instructions: []Instruction{{
			Name: "DIV_R64", Mnemonic: "DIV", Skipped: "x",
			Measured: &Measured{Uops: 36, UopsIssued: 36.5, Ports: "2*p0+1*p0156", TPMeasured: 21.25,
				TPComputed: 2, TPFast: 9.75, Latencies: []Latency{
					{Source: "RAX", Dest: "RAX", Cycles: 38, UpperBound: true, SameReg: true, FastValues: 26, Notes: "n"},
					{},
				}},
			IACA: []IACAOut{{Version: "2.1", Uops: -3, Ports: "1*p015"}, {Version: "3.0", Uops: 1 << 40}},
		}}})},
		{"floats", Single(Architecture{Name: "Ivy Bridge", Instructions: []Instruction{
			{Measured: &Measured{Uops: negZero, UopsIssued: math.NaN(), TPMeasured: negZero, TPComputed: math.NaN(),
				TPFast: math.Inf(-1)}},
			{Measured: &Measured{Uops: 5e-324, UopsIssued: math.SmallestNonzeroFloat64 * 3, TPMeasured: 1e-7,
				TPComputed: 1e21, TPFast: math.Inf(1), Latencies: []Latency{
					{Cycles: negZero, FastValues: math.NaN()},
					{Cycles: math.MaxFloat64, FastValues: 1e-5},
					{Cycles: 0.1 + 0.2, FastValues: -123456789.125},
				}}},
		}})},
		{"strings", Single(Architecture{Name: `<arch & "name">`, Instructions: []Instruction{
			{Name: `<>&'"`, Mnemonic: "\t\n\r", Skipped: "a\x00b\x01c\x1f\x7f",
				Measured: &Measured{Ports: "\xff\xfe invalid \xc3 \xed\xa0\x80 surrogate",
					Latencies: []Latency{{Source: "µop", Dest: "日本語", Notes: "\U0001F600 \uFFFD \uFFFE \uFFFF \U0010FFFF"}}},
				IACA: []IACAOut{{Version: "\r\n", Ports: "p0 & p1 < p5 > 'x'"}}},
			{Name: "trailing \xe2\x82", Mnemonic: "ok"},
		}})},
	}
	for _, c := range edges {
		checkWrite(t, c.what, c.doc)
	}
}

// FuzzWrite holds Write to encoding/xml's bytes on documents built from
// fuzzed strings, floats and bools.
func FuzzWrite(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 5e-324, 2.2250738585072009e-308, 1e-7, 1e21,
		math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add("ADD_R64_R64", "1*p0156", "self chain", v, 1.0, 0.25, true, false)
	}
	f.Add(`<>&'"`, "\t\n\r\x00\x7f", "\xff\xc3(\xed\xa0\x80", 1.5, -2.0, 3e300, false, true)
	f.Add("", "µop 日本語 \U0001F600", "\uFFFD\uFFFE", 0.1, 0.0, -0.0, true, true)
	f.Fuzz(func(t *testing.T, s1, s2, s3 string, f1, f2, f3 float64, b1, b2 bool) {
		m := &Measured{Uops: f1, UopsIssued: f2, Ports: s2, TPMeasured: f3, TPComputed: f1, TPFast: f2,
			Latencies: []Latency{
				{Source: s1, Dest: s3, Cycles: f3, UpperBound: b1, SameReg: b2, FastValues: f1, Notes: s2},
				{Source: s3, Dest: s1, Cycles: f2, UpperBound: b2, SameReg: b1, FastValues: f3, Notes: s3},
			}}
		if b1 && b2 {
			m.Latencies = nil
		}
		in := Instruction{Name: s1, Mnemonic: s2, Skipped: s3, Measured: m,
			IACA: []IACAOut{{Version: s3, Uops: len(s1) - len(s2), Ports: s1}}}
		bare := Instruction{Name: s3, Mnemonic: s1}
		doc := &Document{Architectures: []Architecture{
			{Name: s1, Instructions: []Instruction{in, bare}},
			{Name: s2},
			{Name: s3, Instructions: []Instruction{bare}},
		}}
		checkWrite(t, "fuzzed document", doc)
	})
}

// render renders one generation the way isa-cold and cmd/uopsinfo do:
// FromArchResult with the generation's analyzers, then Write into a
// sha256.
func render(tb testing.TB, res *core.ArchResult, analyzers []*iaca.Analyzer) [sha256.Size]byte {
	h := sha256.New()
	if err := Write(h, Single(FromArchResult(res, analyzers))); err != nil {
		tb.Fatal(err)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// skylakeISA returns Skylake's full-ISA result and its analyzers.
func skylakeISA(tb testing.TB) (*core.ArchResult, []*iaca.Analyzer) {
	tb.Helper()
	results, analyzers := fullISA(tb)
	for i, res := range results {
		if res.Arch == uarch.Get(uarch.Skylake).Name() {
			return res, analyzers[i]
		}
	}
	tb.Fatal("no Skylake result")
	return nil, nil
}

// TestRenderAllocs pins the allocations of rendering every 30th Skylake
// variant with its analyzers, so that a return to reflection fails: they
// are FromArchResult's shared slices, the measured port-usage strings (one
// allocation each: their keys are sorted on the stack) and Write's one
// buffer. With encoding/xml's encoder and a slice per instruction, the
// same render took 3 013, and with a heap slice of keys per usage string
// 143.
func TestRenderAllocs(t *testing.T) {
	const ceiling = 76
	full, analyzers := skylakeISA(t)
	res := core.NewArchResult(full.Arch)
	for i, name := range full.Names() {
		if i%30 == 0 {
			res.Results[name] = full.Results[name]
		}
	}
	allocs := testing.AllocsPerRun(20, func() { render(t, res, analyzers) })
	t.Logf("%d variants: %.0f allocs per render (ceiling %d)", len(res.Results), allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("rendering %d variants takes %.0f allocs, above its ceiling of %d", len(res.Results), allocs, ceiling)
	}
}

// TestConcurrentRenderIACAPorts renders one generation from several
// goroutines over shared, fresh analyzers, as uopsd's handlers do, so the
// analyzers format their usage strings under contention. Every rendering
// must be the same, and every IACA ports string must equal the entry's
// UsageString.
func TestConcurrentRenderIACAPorts(t *testing.T) {
	full, _ := skylakeISA(t)
	analyzers, err := analyzersFor(uarch.Get(uarch.Skylake))
	if err != nil {
		t.Fatal(err)
	}
	const renders = 4
	archs := make([]Architecture, renders)
	sums := make([][sha256.Size]byte, renders)
	var wg sync.WaitGroup
	for i := range renders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			archs[i] = FromArchResult(full, analyzers)
			h := sha256.New()
			if err := Write(h, Single(archs[i])); err != nil {
				t.Error(err)
				return
			}
			h.Sum(sums[i][:0])
		}()
	}
	wg.Wait()
	for i := 1; i < renders; i++ {
		if sums[i] != sums[0] {
			t.Errorf("render %d differs from render 0", i)
		}
	}
	byVersion := map[string]*iaca.Analyzer{}
	for _, a := range analyzers {
		byVersion[string(a.Version())] = a
	}
	checked := 0
	for _, a := range archs {
		for _, in := range a.Instructions {
			for _, out := range in.IACA {
				e, ok := byVersion[out.Version].Entry(in.Name)
				if !ok {
					t.Fatalf("IACA %s has no entry for %s", out.Version, in.Name)
				}
				if want := e.UsageString(); out.Ports != want || out.Uops != e.Uops {
					t.Errorf("IACA %s %s: ports %q, uops %d; want %q, %d", out.Version, in.Name, out.Ports, out.Uops, want, e.Uops)
				}
				checked++
			}
		}
	}
	if want := renders * len(full.Results) * len(analyzers); checked != want {
		t.Errorf("checked %d IACA entries, want %d", checked, want)
	}
}

// BenchmarkRenderXML renders the whole Skylake result with its analyzers
// into a sha256, as isa-cold and cmd/uopsinfo render a generation.
func BenchmarkRenderXML(b *testing.B) {
	res, analyzers := skylakeISA(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		render(b, res, analyzers)
	}
}
