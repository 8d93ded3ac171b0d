package remote

// Tests of the wire codec: AppendRequest/ParseRequest and
// AppendResponse/ParseResponse against encoding/json's reading of the
// schema types, which stays the reference.

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"unicode/utf8"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/isa"
	"uopsinfo/internal/pipesim"
	"uopsinfo/internal/uarch"
	"uopsinfo/internal/xedspec"
)

// The bounds the tests parse under: the worker's.
const (
	testMaxCopies = 1024
	testMaxInstrs = 1 << 22
)

func TestEncodeDecodeRoundtrip(t *testing.T) {
	set := xedspec.MustFullISA()
	add, err := asmgen.NewInst(variant(t, set, "ADD_R64_R64"),
		asmgen.RegOperand(isa.RAX), asmgen.RegOperand(isa.RBX))
	if err != nil {
		t.Fatal(err)
	}
	load, err := asmgen.NewInst(variant(t, set, "MOV_R64_M64"),
		asmgen.RegOperand(isa.RCX), asmgen.MemOperand(isa.RSI, 0x2040))
	if err != nil {
		t.Fatal(err)
	}
	shld, err := asmgen.NewInst(variant(t, set, "SHLD_R64_R64_I8"),
		asmgen.RegOperand(isa.RCX), asmgen.RegOperand(isa.RDX), asmgen.ImmOperand(5))
	if err != nil {
		t.Fatal(err)
	}
	code := asmgen.Sequence{add, load, shld}.Repeat(4)

	// The body, read by the reference.
	raw := AppendRequest(nil, "Skylake", pipesim.DividerValues(1), code, []int{1})
	var mr MeasureRequest
	if err := json.Unmarshal(raw, &mr); err != nil {
		t.Fatalf("encoding/json refuses %s: %v", raw, err)
	}
	if len(mr.Instrs) != 3 {
		t.Fatalf("encoded %d distinct instructions, want 3 (repeat copies must share)", len(mr.Instrs))
	}
	if len(mr.Order) != len(code) {
		t.Fatalf("order length %d, want %d", len(mr.Order), len(code))
	}
	if mr.Div != 1 {
		t.Errorf("divider regime %d did not survive the roundtrip", mr.Div)
	}

	// The body, read by the worker.
	req, err := ParseRequest(raw, testMaxCopies, testMaxInstrs)
	if err != nil || req.Err != nil {
		t.Fatal(err, req.Err)
	}
	dec := req.Kernel
	if req.Div != 1 || req.Arch != uarch.Get(uarch.Skylake) {
		t.Errorf("parsed divider regime %d on %v, want 1 on Skylake", req.Div, req.Arch)
	}
	if dec.String() != code.String() || !reflect.DeepEqual(req.Copies, []int{1}) {
		t.Errorf("decoded copies %v of\n%s\nwant [1] of\n%s", req.Copies, dec.String(), code.String())
	}
	// Repeated instances must decode to one shared instance like the
	// client's (the simulator keys memory dependencies on operand identity).
	if dec[0] != dec[3] || dec[1] != dec[4] {
		t.Error("decoded repeated instances are not shared")
	}
	// Memory operand address must be preserved exactly.
	if m := dec[1].Ops[1].Mem; m == nil || m.Addr != 0x2040 || m.Base != isa.RSI {
		t.Errorf("memory operand decoded as %+v", dec[1].Ops[1])
	}

	// An identity-order short kernel elides Order.
	mr = MeasureRequest{}
	if err := json.Unmarshal(AppendRequest(nil, "Skylake", 0, asmgen.Sequence{add, load}, []int{1}), &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Order != nil {
		t.Errorf("identity order not elided: %v", mr.Order)
	}

	// A kernel sent with its copy counts decodes to the kernel and the
	// counts; the worker's runner repeats it.
	kernel := asmgen.Sequence{add, load, shld, add}
	raw = AppendRequest(nil, "Skylake", 0, kernel, []int{2, 12})
	mr = MeasureRequest{}
	if err := json.Unmarshal(raw, &mr); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mr.Copies, []int{2, 12}) {
		t.Errorf("copy counts %v did not survive the roundtrip", mr.Copies)
	}
	if req, err = ParseRequest(raw, testMaxCopies, testMaxInstrs); err != nil || req.Err != nil {
		t.Fatal(err, req.Err)
	}
	if dec = req.Kernel; dec.String() != kernel.String() || !reflect.DeepEqual(req.Copies, []int{2, 12}) {
		t.Errorf("decoded copies %v of\n%s\nwant [2 12] of\n%s", req.Copies, dec.String(), kernel.String())
	}
	if dec[0] != dec[3] {
		t.Error("decoded kernel does not share its repeated instance")
	}
}

func TestDecodeSeqRejectsBadInput(t *testing.T) {
	for i, mr := range badSeqs() {
		raw, err := json.Marshal(mr)
		if err != nil {
			t.Fatal(err)
		}
		req, err := ParseRequest(raw, testMaxCopies, testMaxInstrs)
		if err != nil || req.Err == nil {
			t.Errorf("case %d: ParseRequest(%s) = %v, kernel error %v; want the kernel refused inside a 200", i, raw, err, req.Err)
		}
	}
}

// badSeqs are requests whose kernel the worker must refuse: unknown names
// and registers, wrong operand counts, an order index out of range, and copy
// counts that are negative or expand past MaxSeqLen (with and without an
// explicit order, and at a count whose product overflows int), and copy
// counts above MaxSeqLen of an empty kernel, which expand to nothing but
// would still loop once per copy.
func badSeqs() []MeasureRequest {
	add := Inst{Name: "ADD_R64_R64", Ops: []Op{{Reg: "RAX"}, {Reg: "RBX"}}}
	bad := func(copies int, order []int, instrs ...Inst) MeasureRequest {
		return MeasureRequest{Gen: "skylake", Copies: []int{copies}, Instrs: append([]Inst{}, instrs...), Order: order}
	}
	return []MeasureRequest{
		bad(1, nil, Inst{Name: "NO_SUCH_VARIANT"}),
		bad(1, nil, Inst{Name: "ADD_R64_R64", Ops: []Op{{Reg: "RAX"}, {Reg: "BOGUS"}}}),
		bad(1, nil, Inst{Name: "ADD_R64_R64", Ops: []Op{{Reg: "RAX"}}}),
		bad(1, []int{1}, add),
		bad(-1, nil, add),
		bad(MaxSeqLen+1, nil, add),
		bad(MaxSeqLen/3+1, []int{0, 0, 0}, add),
		bad(int(^uint(0)>>1), nil, add, add),
		bad(int(^uint(0)>>1), nil),
		bad(int(^uint(0)>>1), []int{}, add),
		bad(MaxSeqLen+1, nil),
	}
}

// referenceKernel decodes a request read by encoding/json the way the
// worker decoded each sequence before it parsed bodies by hand: the
// reference ParseRequest's kernels and kernel errors are held to.
func referenceKernel(set *isa.Set, mr MeasureRequest) (asmgen.Sequence, error) {
	n := len(mr.Order)
	if mr.Order == nil {
		n = len(mr.Instrs)
	}
	for _, c := range mr.Copies {
		if c < 0 || c > MaxSeqLen/max(n, 1) {
			return nil, fmt.Errorf("copy count %d of %d instructions", c, n)
		}
	}
	insts := make([]*asmgen.Inst, len(mr.Instrs))
	for i, wi := range mr.Instrs {
		variant := set.Lookup(wi.Name)
		if variant == nil {
			return nil, fmt.Errorf("unknown variant %q", wi.Name)
		}
		ops := make([]asmgen.Operand, len(wi.Ops))
		for k, wo := range wi.Ops {
			switch {
			case wo.Base != "":
				if ops[k] = asmgen.MemOperand(isa.ParseReg(wo.Base), wo.Addr); ops[k].Mem.Base == isa.RegNone {
					return nil, fmt.Errorf("unknown base %q", wo.Base)
				}
			case wo.Imm != nil:
				ops[k] = asmgen.ImmOperand(*wo.Imm)
			case wo.Reg != "":
				if ops[k] = asmgen.RegOperand(isa.ParseReg(wo.Reg)); ops[k].Reg == isa.RegNone {
					return nil, fmt.Errorf("unknown register %q", wo.Reg)
				}
			default:
				return nil, errors.New("empty operand")
			}
		}
		in, err := asmgen.NewInst(variant, ops...)
		if err != nil {
			return nil, err
		}
		insts[i] = in
	}
	if mr.Order == nil {
		return insts, nil
	}
	kernel := make(asmgen.Sequence, len(mr.Order))
	for i, j := range mr.Order {
		if j < 0 || j >= len(insts) {
			return nil, fmt.Errorf("order index %d", j)
		}
		kernel[i] = insts[j]
	}
	return kernel, nil
}

// sameKernel fails unless got and want hold the same instructions and share
// instances at the same positions.
func sameKernel(t *testing.T, got, want asmgen.Sequence) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("kernel of %d instructions, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Variant != w.Variant || len(g.Ops) != len(w.Ops) {
			t.Fatalf("instruction %d is %s, want %s", i, g, w)
		}
		for k := range g.Ops {
			if !reflect.DeepEqual(g.Ops[k], w.Ops[k]) {
				t.Fatalf("instruction %d operand %d is %+v, want %+v", i, k, g.Ops[k], w.Ops[k])
			}
		}
		for j := 0; j < i; j++ {
			if (got[i] == got[j]) != (want[i] == want[j]) {
				t.Fatalf("instructions %d and %d: shared %v, want %v", j, i, got[i] == got[j], want[i] == want[j])
			}
		}
	}
}

// FuzzDecodeSeq feeds arbitrary /v1/measure request bodies to the worker's
// parser, which decodes the kernel and its copy counts. It must never panic. A body it accepts must decode with
// encoding/json to the same generation, regime and copy counts, and to the
// same kernel or a kernel error where the reference decoder has one. An
// accepted kernel stays within the bounds: no copy count negative or
// expanding it past MaxSeqLen, an empty kernel counting one instruction per
// copy, and no more than the instruction budget in all. Written back by
// AppendRequest, it parses to itself.
func FuzzDecodeSeq(f *testing.F) {
	set := uarch.Get(uarch.Skylake).InstrSet()
	add := asmgen.MustInst(set.Lookup("ADD_R64_R64"), asmgen.RegOperand(isa.RAX), asmgen.RegOperand(isa.RBX))
	load := asmgen.MustInst(set.Lookup("MOV_R64_M64"), asmgen.RegOperand(isa.RCX), asmgen.MemOperand(isa.RSI, 0x2040))
	for _, n := range []int{0, 1, 2, 12} {
		f.Add(AppendRequest(nil, "Skylake", pipesim.DividerValues(n%2), asmgen.Sequence{add, load, add}, []int{n}))
	}
	for _, mr := range badSeqs() {
		raw, err := json.Marshal(mr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		req, err := ParseRequest(raw, testMaxCopies, testMaxInstrs)
		if err != nil {
			return
		}
		var mr MeasureRequest
		if err := json.Unmarshal(raw, &mr); err != nil {
			t.Fatalf("accepted a body encoding/json refuses (%v): %q", err, raw)
		}
		arch, err := uarch.ByName(mr.Gen)
		if err != nil || arch != req.Arch {
			t.Fatalf("parsed generation %v, encoding/json read %q (%v)", req.Arch, mr.Gen, err)
		}
		if int(req.Div) != mr.Div || !reflect.DeepEqual(req.Copies, mr.Copies) {
			t.Fatalf("parsed regime %d and copies %v, encoding/json read %d and %v", req.Div, req.Copies, mr.Div, mr.Copies)
		}
		want, werr := referenceKernel(arch.InstrSet(), mr)
		if (req.Err == nil) != (werr == nil) {
			t.Fatalf("kernel error %v, the reference's %v: %q", req.Err, werr, raw)
		}
		if req.Err != nil {
			return
		}
		sameKernel(t, req.Kernel, want)
		total := 0
		for _, c := range req.Copies {
			if c < 0 || c > MaxSeqLen/max(len(req.Kernel), 1) {
				t.Fatalf("accepted %d copies of %d instructions, outside the %d bound", c, len(req.Kernel), MaxSeqLen)
			}
			total += max(len(req.Kernel), 1) * c
		}
		if total > testMaxInstrs {
			t.Fatalf("accepted %d instructions in all, above the %d budget", total, testMaxInstrs)
		}
		again, err := ParseRequest(AppendRequest(nil, arch.Name(), req.Div, req.Kernel, req.Copies), testMaxCopies, testMaxInstrs)
		if err != nil || again.Err != nil {
			t.Fatalf("the written request does not parse: %v, %v", err, again.Err)
		}
		if again.Arch != arch || again.Div != req.Div || !reflect.DeepEqual(again.Copies, req.Copies) {
			t.Fatalf("written and parsed again as %v %d %v, want %v %d %v", again.Arch, again.Div, again.Copies, arch, req.Div, req.Copies)
		}
		sameKernel(t, again.Kernel, req.Kernel)
	})
}

// normalResponse is resp as it reads after AppendResponse wrote it with
// numPorts port counts per entry: empty lists are left out, each entry's
// port counts are padded with zeros to numPorts, and the wire version is
// this package's.
func normalResponse(resp MeasureResponse, numPorts int) MeasureResponse {
	resp.WireVersion = WireVersion
	if len(resp.Counters) == 0 {
		resp.Counters = nil
	}
	resp.Counters = append([]Counters(nil), resp.Counters...)
	for i := range resp.Counters {
		var ports []int
		if numPorts > 0 {
			ports = make([]int, numPorts)
			copy(ports, resp.Counters[i].PortUops)
		}
		resp.Counters[i].PortUops = ports
	}
	return resp
}

// widest returns the most port counts an entry of cs holds.
func widest(cs []Counters) int {
	n := 0
	for _, c := range cs {
		n = max(n, len(c.PortUops))
	}
	return n
}

func simCounters(cs []Counters) []pipesim.Counters {
	out := make([]pipesim.Counters, len(cs))
	for i, c := range cs {
		out[i] = c.sim()
	}
	return out
}

// TestParseResponseBoundsPortCounts: a counters entry carries at most
// pipesim.MaxPorts port counts, all of which reach the reading; one more is
// a malformed response, refused rather than cut.
func TestParseResponseBoundsPortCounts(t *testing.T) {
	body := func(ports int) []byte {
		counts := make([]int, ports)
		for p := range counts {
			counts[p] = p + 1
		}
		b := appendInts([]byte(`{"fingerprint":"f","wireVersion":3,"counters":[{"cycles":1,"portUops":`), counts)
		return append(b, `,"totalUops":0,"issuedUops":0,"elimUops":0}]}`...)
	}
	resp, err := ParseResponse(body(pipesim.MaxPorts))
	if err != nil {
		t.Fatalf("%d port counts: %v", pipesim.MaxPorts, err)
	}
	if got := simCounters(resp.Counters)[0]; got.PortUops[0] != 1 || got.PortUops[pipesim.MaxPorts-1] != pipesim.MaxPorts {
		t.Errorf("%d port counts read as %v", pipesim.MaxPorts, got.PortUops)
	}
	if resp, err := ParseResponse(body(pipesim.MaxPorts + 1)); err == nil {
		t.Errorf("%d port counts accepted as %+v", pipesim.MaxPorts+1, resp)
	}
}

// FuzzParseResponse feeds arbitrary bodies to the client's response
// parser. It must never panic, and a body it accepts must decode with
// encoding/json to the same fingerprint, wire version, counters and error,
// with at most pipesim.MaxPorts port counts per entry. Written back by
// AppendResponse at its widest entry's port count, an accepted response
// parses to itself, every entry padded with zeros to that count.
// AppendResponse writes any string as encoding/json reads it back: itself
// when it is valid UTF-8.
func FuzzParseResponse(f *testing.F) {
	cs := []pipesim.Counters{
		{Cycles: 13, PortUops: [pipesim.MaxPorts]int{3, 3, 0, 0, 0, 3, 3, 0}, TotalUops: 12, IssuedUops: 12},
		{Cycles: 63, PortUops: [pipesim.MaxPorts]int{18, 18, 0, 0, 0, 18, 18, 0}, TotalUops: 72, IssuedUops: 72, ElimUops: 1},
	}
	f.Add(AppendResponse(nil, "pipesim@1 cfg=0123456789abcdef", cs, 8, ""))
	f.Add(AppendResponse(nil, "pipesim@1 cfg=0123456789abcdef", nil, 0, `remote: unknown instruction variant "NOPE"`))
	f.Add([]byte(`{"fingerprint":"a\"b\\cé😀","wireVersion":2,"counters":[],"error":"x"}`))
	f.Add([]byte(`{"fingerprint":"f","wireVersion":3,"counters":[{"cycles":1,"portUops":[],"totalUops":0,"issuedUops":0,"elimUops":0}]}`))
	f.Add([]byte(`{"fingerprint":"f","wireVersion":3,"counters":null}`))
	f.Add([]byte("garbage"))
	f.Add([]byte(`{"fingerprint":"f","wireVersion":3,"counters":[{"cycles":1,"portUops":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17],"totalUops":0,"issuedUops":0,"elimUops":0}]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		s := string(raw)
		body := AppendResponse(nil, s, nil, 0, s)
		var ref MeasureResponse
		if err := json.Unmarshal(body, &ref); err != nil {
			t.Fatalf("encoding/json refuses the written %q: %v", body, err)
		}
		if utf8.ValidString(s) && (ref.Fingerprint != s || ref.Error != s) {
			t.Fatalf("%q written as %q", s, body)
		}
		if got, err := ParseResponse(body); err != nil || !reflect.DeepEqual(got, ref) {
			t.Fatalf("the written %q parses to %+v (%v), encoding/json reads %+v", body, got, err, ref)
		}

		resp, err := ParseResponse(raw)
		if err != nil {
			return
		}
		var mr MeasureResponse
		if err := json.Unmarshal(raw, &mr); err != nil {
			t.Fatalf("accepted a body encoding/json refuses (%v): %q", err, raw)
		}
		if !reflect.DeepEqual(resp, mr) {
			t.Fatalf("parsed %+v, encoding/json read %+v", resp, mr)
		}
		numPorts := widest(resp.Counters)
		if numPorts > pipesim.MaxPorts {
			t.Fatalf("accepted %d port counts, more than the %d a reading holds", numPorts, pipesim.MaxPorts)
		}
		again, err := ParseResponse(AppendResponse(nil, resp.Fingerprint, simCounters(resp.Counters), numPorts, resp.Error))
		if err != nil {
			t.Fatalf("the written response does not parse: %v", err)
		}
		if want := normalResponse(resp, numPorts); !reflect.DeepEqual(again, want) {
			t.Fatalf("written and parsed again as %+v, want %+v", again, want)
		}
	})
}

// portUsageKernel is the longest kernel a full-ISA characterization builds:
// 256 instances of one blocking instruction followed by the instruction
// under test.
func portUsageKernel(tb testing.TB) asmgen.Sequence {
	tb.Helper()
	set := uarch.Get(uarch.Skylake).InstrSet()
	blocker := asmgen.MustInst(set.Lookup("PSHUFD_XMM_XMM_I8"), asmgen.RegOperand(isa.XMM1), asmgen.RegOperand(isa.XMM2), asmgen.ImmOperand(0x1b))
	kernel := make(asmgen.Sequence, 256, 257)
	for i := range kernel {
		kernel[i] = blocker
	}
	return append(kernel, asmgen.MustInst(set.Lookup("MOVQ2DQ_XMM_MM"), asmgen.RegOperand(isa.XMM3), asmgen.RegOperand(isa.MM0)))
}

// skylakeCounters are two readings of the port-usage kernel, as a worker
// answers them.
var skylakeCounters = []pipesim.Counters{
	{Cycles: 520, PortUops: [pipesim.MaxPorts]int{1, 257, 0, 0, 0, 256, 0, 0}, TotalUops: 514, IssuedUops: 514},
	{Cycles: 3090, PortUops: [pipesim.MaxPorts]int{12, 1542, 0, 0, 0, 1530, 0, 0}, TotalUops: 3084, IssuedUops: 3084},
}

// wireRung is one rung of BenchmarkWire: round writes one body into buf,
// parses it and returns buf for the next round.
type wireRung struct {
	name  string
	round func(tb testing.TB, buf []byte) []byte
}

// wireRungs are the request for the longest kernel at the copy counts 2 and
// 12, and an answer of two Skylake counters.
func wireRungs(tb testing.TB) []wireRung {
	kernel := portUsageKernel(tb)
	return []wireRung{
		{"request", func(tb testing.TB, buf []byte) []byte {
			buf = AppendRequest(buf[:0], "Skylake", 0, kernel, []int{2, 12})
			req, err := ParseRequest(buf, testMaxCopies, testMaxInstrs)
			if err != nil || req.Err != nil || len(req.Kernel) != len(kernel) {
				tb.Fatal(err, req.Err)
			}
			return buf
		}},
		{"response", func(tb testing.TB, buf []byte) []byte {
			buf = AppendResponse(buf[:0], "pipesim@1 cfg=0123456789abcdef", skylakeCounters, 8, "")
			resp, err := ParseResponse(buf)
			if err != nil || len(resp.Counters) != len(skylakeCounters) {
				tb.Fatal(err)
			}
			return buf
		}},
	}
}

// BenchmarkWire is the fleet wire rung: one request, and one answer, each
// written and parsed.
func BenchmarkWire(b *testing.B) {
	for _, rung := range wireRungs(b) {
		b.Run(rung.name, func(b *testing.B) {
			buf := rung.round(b, nil)
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				buf = rung.round(b, buf)
			}
		})
	}
}

// TestWireAllocs pins the allocations of one round of each BenchmarkWire
// rung into a reused buffer. Writing allocates nothing. Parsing a request
// allocates what the worker keeps: the copy counts, the distinct
// instructions (their list, and each instruction with its operands), the
// order and the kernel. Parsing a response allocates the counters, their
// port counts and the fingerprint.
func TestWireAllocs(t *testing.T) {
	ceilings := map[string]float64{"request": 9, "response": 4}
	for _, rung := range wireRungs(t) {
		buf := rung.round(t, nil)
		allocs := testing.AllocsPerRun(50, func() { buf = rung.round(t, buf) })
		t.Logf("%s: %.0f allocs per round (ceiling %.0f)", rung.name, allocs, ceilings[rung.name])
		if allocs > ceilings[rung.name] {
			t.Errorf("%s: one round takes %.0f allocs, above its ceiling of %.0f", rung.name, allocs, ceilings[rung.name])
		}
	}
}
