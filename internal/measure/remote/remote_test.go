package remote

// Unit tests of the fleet backend against fake workers: canned HTTP servers
// speaking the worker protocol with fabricated counters. The end-to-end
// loopback tests — real uopsd workers, byte-identical characterization
// output — live in internal/service (this package cannot import service
// without a cycle).

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/isa"
	"uopsinfo/internal/measure"
	"uopsinfo/internal/pipesim"
	"uopsinfo/internal/uarch"
	"uopsinfo/internal/xedspec"
)

func variant(t *testing.T, set *isa.Set, name string) *isa.Instr {
	t.Helper()
	in := set.Lookup(name)
	if in == nil {
		t.Fatalf("variant %s not found", name)
	}
	return in
}

func TestSplitList(t *testing.T) {
	got := SplitList(" http://a:1/, ,http://b:2 ,")
	want := []string{"http://a:1", "http://b:2"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SplitList = %v, want %v", got, want)
	}
	if SplitList("") != nil {
		t.Errorf("SplitList(\"\") = %v, want nil", SplitList(""))
	}
}

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

	ws := EncodeSeq(code, pipesim.DividerValues(1))
	if len(ws.Instrs) != 3 {
		t.Fatalf("encoded %d distinct instructions, want 3 (repeat copies must share)", len(ws.Instrs))
	}
	if len(ws.Order) != len(code) {
		t.Fatalf("order length %d, want %d", len(ws.Order), len(code))
	}

	// Through the wire: marshal, unmarshal, decode.
	raw, err := json.Marshal(ws)
	if err != nil {
		t.Fatal(err)
	}
	var back Seq
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Div != 1 {
		t.Errorf("divider regime %d did not survive the roundtrip", back.Div)
	}
	dec, copies, err := DecodeSeq(set, back)
	if err != nil {
		t.Fatal(err)
	}
	if dec.String() != code.String() || copies != 1 {
		t.Errorf("decoded %d copies of\n%s\nwant 1 of\n%s", copies, dec.String(), code.String())
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

	// An identity-order short sequence elides Order.
	if ws := EncodeSeq(asmgen.Sequence{add, load}, 0); ws.Order != nil {
		t.Errorf("identity order not elided: %v", ws.Order)
	}

	// A kernel sent with a copy count decodes to the kernel and the count;
	// the worker's runner repeats it.
	kernel := asmgen.Sequence{add, load, shld, add}
	ws = EncodeSeq(kernel, 0)
	ws.Copies = 12
	if raw, err = json.Marshal(ws); err != nil {
		t.Fatal(err)
	}
	back = Seq{}
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Copies != 12 {
		t.Errorf("copy count %d did not survive the roundtrip", back.Copies)
	}
	if dec, copies, err = DecodeSeq(set, back); err != nil {
		t.Fatal(err)
	}
	if dec.String() != kernel.String() || copies != 12 {
		t.Errorf("decoded %d copies of\n%s\nwant 12 of\n%s", copies, dec.String(), kernel.String())
	}
	if dec[0] != dec[3] {
		t.Error("decoded kernel does not share its repeated instance")
	}
}

func TestDecodeSeqRejectsBadInput(t *testing.T) {
	set := xedspec.MustFullISA()
	for i, ws := range badSeqs() {
		if _, _, err := DecodeSeq(set, ws); err == nil {
			t.Errorf("case %d: DecodeSeq accepted invalid input %+v", i, ws)
		}
	}
}

// badSeqs are wire sequences DecodeSeq must refuse: unknown names and
// registers, wrong operand counts, an order index out of range, and copy
// counts that are negative or expand past MaxSeqLen (with and without an
// explicit order, and at a count whose product overflows int), and copy
// counts above MaxSeqLen of an empty kernel, which expand to nothing but
// would still loop once per copy.
func badSeqs() []Seq {
	add := Inst{Name: "ADD_R64_R64", Ops: []Op{{Reg: "RAX"}, {Reg: "RBX"}}}
	return []Seq{
		{Instrs: []Inst{{Name: "NO_SUCH_VARIANT"}}},
		{Instrs: []Inst{{Name: "ADD_R64_R64", Ops: []Op{{Reg: "RAX"}, {Reg: "BOGUS"}}}}},
		{Instrs: []Inst{{Name: "ADD_R64_R64", Ops: []Op{{Reg: "RAX"}}}}},
		{Instrs: []Inst{add}, Order: []int{1}},
		{Instrs: []Inst{add}, Copies: -1},
		{Instrs: []Inst{add}, Copies: MaxSeqLen + 1},
		{Instrs: []Inst{add}, Order: []int{0, 0, 0}, Copies: MaxSeqLen/3 + 1},
		{Instrs: []Inst{add, add}, Copies: int(^uint(0) >> 1)},
		{Copies: int(^uint(0) >> 1)},
		{Instrs: []Inst{add}, Order: []int{}, Copies: int(^uint(0) >> 1)},
		{Copies: MaxSeqLen + 1},
	}
}

// FuzzDecodeSeq feeds arbitrary /v1/measure sequence bodies to the worker's
// decoder: it must never panic, never accept a kernel × copies above
// MaxSeqLen or more than MaxSeqLen copies, and must return the wire's copy
// count (0 meaning 1).
func FuzzDecodeSeq(f *testing.F) {
	set := uarch.Get(uarch.Skylake).InstrSet()
	add := asmgen.MustInst(set.Lookup("ADD_R64_R64"), asmgen.RegOperand(isa.RAX), asmgen.RegOperand(isa.RBX))
	load := asmgen.MustInst(set.Lookup("MOV_R64_M64"), asmgen.RegOperand(isa.RCX), asmgen.MemOperand(isa.RSI, 0x2040))
	for _, n := range []int{0, 1, 2, 12} {
		ws := EncodeSeq(asmgen.Sequence{add, load, add}, pipesim.DividerValues(n%2))
		ws.Copies = n
		raw, err := json.Marshal(ws)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, ws := range badSeqs() {
		raw, err := json.Marshal(ws)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var ws Seq
		if json.Unmarshal(raw, &ws) != nil {
			return
		}
		kernel, copies, err := DecodeSeq(set, ws)
		if err != nil {
			return
		}
		if len(kernel)*copies > MaxSeqLen {
			t.Fatalf("accepted %d copies of %d instructions, above the %d bound", copies, len(kernel), MaxSeqLen)
		}
		// The simulator renames once per copy even for an empty kernel.
		if ws.Copies > MaxSeqLen {
			t.Fatalf("accepted %d copies, above the %d bound", ws.Copies, MaxSeqLen)
		}
		if copies != max(ws.Copies, 1) {
			t.Fatalf("decoded copy count %d, wire count %d", copies, ws.Copies)
		}
	})
}

// fakeWorker is a canned HTTP server speaking the worker protocol. Measurement
// responses carry fabricated counters (Cycles = distinct instructions,
// TotalUops = total order length times copies) so tests can verify delivery.
type fakeWorker struct {
	t           *testing.T
	srv         *httptest.Server
	fingerprint string // serving fingerprint, name@version form
	digest      string
	wire        int // reported wire version (0: none, like an old worker)
	measures    atomic.Int64
	// intercept, if non-nil, may hijack a measurement request (by 1-based
	// arrival number); returning true means the response was written.
	intercept func(n int64, w http.ResponseWriter) bool
	// healthz, if non-nil, runs before each /healthz probe is answered.
	healthz func()

	mu   sync.Mutex
	seqs [][]Seq // the sequences of each answered request
}

func newFakeWorker(t *testing.T, fingerprint, digest string) *fakeWorker {
	t.Helper()
	fw := &fakeWorker{t: t, fingerprint: fingerprint, digest: digest, wire: WireVersion}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if fw.healthz != nil {
			fw.healthz()
		}
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("GET /v1/backends", func(w http.ResponseWriter, r *http.Request) {
		wire := ""
		if fw.wire != 0 {
			wire = fmt.Sprintf(`,"wireVersion":%d`, fw.wire)
		}
		fmt.Fprintf(w, `{"serving":{"name":"pipesim","version":"1","fingerprint":%q,"measureDigest":%q%s}}`,
			fw.fingerprint, fw.digest, wire)
	})
	mux.HandleFunc("POST /v1/measure", func(w http.ResponseWriter, r *http.Request) {
		n := fw.measures.Add(1)
		if fw.intercept != nil && fw.intercept(n, w) {
			return
		}
		fw.answer(w, r)
	})
	fw.srv = httptest.NewServer(mux)
	t.Cleanup(fw.srv.Close)
	return fw
}

func (fw *fakeWorker) answer(w http.ResponseWriter, r *http.Request) {
	var req MeasureRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fp, err := ServingFingerprint(fw.fingerprint, fw.digest)
	if err != nil {
		fw.t.Error(err)
	}
	resp := MeasureResponse{Fingerprint: fp, WireVersion: fw.wire}
	var seqs []Seq
	for _, raw := range req.Seqs {
		var ws Seq
		if err := json.Unmarshal(raw, &ws); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		seqs = append(seqs, ws)
		total := len(ws.Order)
		if total == 0 {
			total = len(ws.Instrs)
		}
		resp.Counters = append(resp.Counters, Counters{Cycles: len(ws.Instrs), TotalUops: total * max(ws.Copies, 1)})
	}
	fw.mu.Lock()
	fw.seqs = append(fw.seqs, seqs)
	fw.mu.Unlock()
	json.NewEncoder(w).Encode(resp)
}

// requests returns the sequences of every request the worker answered.
func (fw *fakeWorker) requests() [][]Seq {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return append([][]Seq(nil), fw.seqs...)
}

// configure points the global backend at the given fake workers and
// registers a cleanup shutdown.
func configure(t *testing.T, opts Options, workers ...*fakeWorker) {
	t.Helper()
	for _, fw := range workers {
		opts.Workers = append(opts.Workers, fw.srv.URL)
	}
	if err := Configure(opts); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(Shutdown)
}

// testSequence builds a short concrete Skylake sequence.
func testSequence(t *testing.T) asmgen.Sequence {
	t.Helper()
	arch, err := uarch.Lookup(uarch.Skylake)
	if err != nil {
		t.Fatal(err)
	}
	set := arch.InstrSet()
	add, err := asmgen.NewInst(variant(t, set, "ADD_R64_R64"),
		asmgen.RegOperand(isa.RAX), asmgen.RegOperand(isa.RBX))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := asmgen.NewInst(variant(t, set, "SUB_R64_R64"),
		asmgen.RegOperand(isa.RCX), asmgen.RegOperand(isa.RDX))
	if err != nil {
		t.Fatal(err)
	}
	return asmgen.Sequence{add, sub}
}

func newRunner(t *testing.T) measure.Runner {
	t.Helper()
	b, ok := measure.Lookup(BackendName)
	if !ok {
		t.Fatal("remote backend not registered")
	}
	r, err := b.NewRunner(uarch.Skylake)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func fleetStats(t *testing.T) measure.FleetStats {
	t.Helper()
	s, ok := theBackend.FleetStats()
	if !ok {
		t.Fatal("no fleet configured")
	}
	return s
}

func TestUnconfiguredBackend(t *testing.T) {
	Shutdown()
	b, ok := measure.Lookup(BackendName)
	if !ok {
		t.Fatal("remote backend not registered")
	}
	if b.Version() != "unconfigured" {
		t.Errorf("unconfigured Version = %q", b.Version())
	}
	if err := theBackend.Ready(); err == nil {
		t.Error("Ready() = nil for an unconfigured backend")
	}
	if _, err := b.NewRunner(uarch.Skylake); err == nil {
		t.Error("NewRunner succeeded on an unconfigured backend")
	}
}

// TestConfigureSetsVersion pins the fleet fingerprint Configure installs as
// the backend's Version, which every persistent cache key folds in.
func TestConfigureSetsVersion(t *testing.T) {
	Shutdown()
	fw := newFakeWorker(t, "pipesim@1", "aaaa")
	if err := Configure(Options{Workers: []string{fw.srv.URL}}); err != nil {
		t.Fatalf("Configure: %v", err)
	}
	t.Cleanup(Shutdown)
	want := "fleet(pipesim@1 cfg=aaaa)"
	if b, _ := measure.Lookup(BackendName); b.Version() != want {
		t.Errorf("configured Version = %q, want %q", b.Version(), want)
	}
}

func TestHandshakeMismatch(t *testing.T) {
	Shutdown()
	a := newFakeWorker(t, "pipesim@1", "aaaa")
	b := newFakeWorker(t, "pipesim@2", "aaaa")
	err := Configure(Options{Workers: []string{a.srv.URL, b.srv.URL}})
	if err == nil {
		Shutdown()
		t.Fatal("Configure accepted a mixed-version fleet")
	}
	if !strings.Contains(err.Error(), "mismatch") {
		t.Errorf("mismatch error = %v", err)
	}

	// Same fingerprint but different measurement configuration: also a hard
	// error.
	c := newFakeWorker(t, "pipesim@1", "bbbb")
	if err := Configure(Options{Workers: []string{a.srv.URL, c.srv.URL}}); err == nil {
		Shutdown()
		t.Fatal("Configure accepted workers with different measurement configs")
	}
}

// TestHandshakeRefusesOtherWireVersion: a worker speaking an older fleet
// protocol would ignore Seq.Copies and answer for one copy, so Configure
// refuses it, naming both versions.
func TestHandshakeRefusesOtherWireVersion(t *testing.T) {
	Shutdown()
	for _, wire := range []int{0, WireVersion - 1, WireVersion + 1} {
		current := newFakeWorker(t, "pipesim@1", "aaaa")
		other := newFakeWorker(t, "pipesim@1", "aaaa")
		other.wire = wire
		err := Configure(Options{Workers: []string{current.srv.URL, other.srv.URL}})
		if err == nil {
			Shutdown()
			t.Fatalf("Configure accepted a worker reporting wire version %d", wire)
		}
		got := "none"
		if wire != 0 {
			got = fmt.Sprint(wire)
		}
		want := fmt.Sprintf("worker speaks %s, this client speaks %d", got, WireVersion)
		if !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), other.srv.URL) {
			t.Errorf("wire %d: error %q, want it to name worker %s and %q", wire, err, other.srv.URL, want)
		}
	}
}

func TestHandshakeUnreachableWorker(t *testing.T) {
	Shutdown()
	a := newFakeWorker(t, "pipesim@1", "aaaa")
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	if err := Configure(Options{Workers: []string{a.srv.URL, dead.URL}}); err == nil {
		Shutdown()
		t.Fatal("Configure accepted an unreachable worker")
	}
}

func TestRunDeliversCounters(t *testing.T) {
	fw := newFakeWorker(t, "pipesim@1", "aaaa")
	configure(t, Options{}, fw)
	r := newRunner(t)
	code := testSequence(t)
	c, err := r.Run(code.Repeat(3))
	if err != nil {
		t.Fatal(err)
	}
	if c.Cycles != 2 || c.TotalUops != 6 {
		t.Errorf("counters = %+v, want Cycles 2, TotalUops 6", c)
	}
	if s := fleetStats(t); s.Sequences != 1 || s.Batches != 1 {
		t.Errorf("stats = %+v, want 1 sequence in 1 batch", s)
	}
}

// TestRunCopies: one measurement's readings are one call — one request
// carrying the kernel once per copy count, under the runner's divider
// regime — and its counters come back in copy-count order.
func TestRunCopies(t *testing.T) {
	fw := newFakeWorker(t, "pipesim@1", "aaaa")
	configure(t, Options{}, fw)
	r := newRunner(t).(*Runner)
	r.SetDividerValues(pipesim.DividerValues(1))
	cs, err := r.RunCopies(testSequence(t), 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 || cs[0].TotalUops != 4 || cs[1].TotalUops != 24 || cs[0].Cycles != 2 || cs[1].Cycles != 2 {
		t.Errorf("counters = %+v, want TotalUops 4 then 24, Cycles 2", cs)
	}
	reqs := fw.requests()
	if len(reqs) != 1 || len(reqs[0]) != 2 {
		t.Fatalf("worker saw requests %+v, want one carrying two sequences", reqs)
	}
	for i, want := range []int{2, 12} {
		ws := reqs[0][i]
		if ws.Copies != want || ws.Div != 1 || len(ws.Instrs) != 2 || ws.Order != nil {
			t.Errorf("sequence %d = %+v, want the 2-instruction kernel with copies %d and divider regime 1", i, ws, want)
		}
	}
	if s := fleetStats(t); s.Batches != 1 || s.Sequences != 2 || s.Retries != 0 {
		t.Errorf("stats = %+v, want 1 batch of 2 sequences", s)
	}
}

// TestRunCopiesSequenceErrorFailsCall: a per-sequence error on either
// reading fails the whole call, without a retry.
func TestRunCopiesSequenceErrorFailsCall(t *testing.T) {
	fw := newFakeWorker(t, "pipesim@1", "aaaa")
	fw.intercept = func(n int64, w http.ResponseWriter) bool {
		fp, _ := ServingFingerprint(fw.fingerprint, fw.digest)
		json.NewEncoder(w).Encode(MeasureResponse{
			Fingerprint: fp, WireVersion: WireVersion,
			Counters: make([]Counters, 2), Errs: []string{"", "cycle limit exceeded"},
		})
		return true
	}
	configure(t, Options{}, fw)
	r := newRunner(t).(*Runner)
	_, err := r.RunCopies(testSequence(t), 2, 12)
	if err == nil || !strings.Contains(err.Error(), "cycle limit exceeded") {
		t.Fatalf("RunCopies = %v, want the worker's per-sequence error", err)
	}
	if got := fw.measures.Load(); got != 1 {
		t.Errorf("worker saw %d requests, want 1 (per-sequence errors are permanent)", got)
	}
	if s := fleetStats(t); s.Retries != 0 || s.Batches != 1 {
		t.Errorf("stats = %+v, want 1 batch and no retries", s)
	}
}

func TestTransientFailureRetries(t *testing.T) {
	fw := newFakeWorker(t, "pipesim@1", "aaaa")
	fw.intercept = func(n int64, w http.ResponseWriter) bool {
		if n == 1 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return true
		}
		return false
	}
	configure(t, Options{}, fw)
	r := newRunner(t)
	c, err := r.Run(testSequence(t))
	if err != nil {
		t.Fatal(err)
	}
	if c.Cycles != 2 {
		t.Errorf("counters after retry = %+v", c)
	}
	s := fleetStats(t)
	if s.Retries < 1 || s.Errors < 1 {
		t.Errorf("stats after transient failure = %+v, want retries and errors", s)
	}
}

func TestPermanentSequenceErrorNotRetried(t *testing.T) {
	fw := newFakeWorker(t, "pipesim@1", "aaaa")
	fw.intercept = func(n int64, w http.ResponseWriter) bool {
		fp, _ := ServingFingerprint(fw.fingerprint, fw.digest)
		json.NewEncoder(w).Encode(MeasureResponse{
			Fingerprint: fp, WireVersion: WireVersion,
			Counters: make([]Counters, 1), Errs: []string{"unknown instruction variant"},
		})
		return true
	}
	configure(t, Options{}, fw)
	r := newRunner(t)
	_, err := r.Run(testSequence(t))
	if err == nil || !strings.Contains(err.Error(), "unknown instruction variant") {
		t.Fatalf("Run = %v, want the worker's per-sequence error", err)
	}
	if got := fw.measures.Load(); got != 1 {
		t.Errorf("worker saw %d requests, want 1 (per-sequence errors are permanent)", got)
	}
	if s := fleetStats(t); s.Retries != 0 {
		t.Errorf("Retries = %d, want 0", s.Retries)
	}
}

func TestFingerprintDriftIsTransient(t *testing.T) {
	// The worker restarts with a different build after the handshake: one
	// serving another fingerprint, or speaking another wire version.
	for _, tc := range []struct {
		name, want string
		drift      func(fw *fakeWorker)
	}{
		{"fingerprint", "drifted", func(fw *fakeWorker) { fw.fingerprint = "pipesim@2" }},
		{"wire", "wire version mismatch", func(fw *fakeWorker) { fw.wire = 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fw := newFakeWorker(t, "pipesim@1", "aaaa")
			configure(t, Options{MaxAttempts: 2}, fw)
			tc.drift(fw)
			r := newRunner(t)
			_, err := r.Run(testSequence(t))
			if err == nil {
				t.Fatal("Run succeeded against a drifted worker")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("drift error = %v", err)
			}
		})
	}
}

// TestUnhealthyWorkerIsProbedBackIntoRotation: three consecutive batch
// failures take a worker out of rotation, and its sender sends nothing more
// until a /healthz probe answers. The call those batches carried is then
// delivered by the same Run.
func TestUnhealthyWorkerIsProbedBackIntoRotation(t *testing.T) {
	fw := newFakeWorker(t, "pipesim@1", "aaaa")
	fw.intercept = func(n int64, w http.ResponseWriter) bool {
		if n <= 3 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return true
		}
		return false
	}
	probed := make(chan struct{}, 1)
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock()
	fw.healthz = func() {
		select {
		case probed <- struct{}{}:
		default:
		}
		<-release
	}
	configure(t, Options{InFlight: 1}, fw)
	r := newRunner(t)
	code := testSequence(t)
	type result struct {
		c   pipesim.Counters
		err error
	}
	done := make(chan result, 1)
	go func() {
		c, err := r.Run(code)
		done <- result{c, err}
	}()

	select {
	case <-probed:
	case res := <-done:
		t.Fatalf("Run returned %+v before the worker was probed", res)
	case <-time.After(10 * time.Second):
		t.Fatal("the failing worker was never probed")
	}
	if s := fleetStats(t); s.Workers[0].Healthy {
		t.Errorf("worker healthy while its probe is held, stats = %+v", s)
	}
	if got := fw.measures.Load(); got != 3 {
		t.Errorf("worker saw %d batches before its probe answered, want 3", got)
	}
	unblock()

	var res result
	select {
	case res = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not finish after the probe answered")
	}
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.c.Cycles != 2 {
		t.Errorf("counters = %+v, want Cycles 2", res.c)
	}
	s := fleetStats(t)
	if s.Errors != 3 || s.Retries != 3 || !s.Workers[0].Healthy {
		t.Errorf("stats = %+v, want 3 errors, 3 retries and the worker healthy", s)
	}
}

func TestCallTimeout(t *testing.T) {
	fw := newFakeWorker(t, "pipesim@1", "aaaa")
	release := make(chan struct{})
	fw.intercept = func(n int64, w http.ResponseWriter) bool {
		<-release
		return false
	}
	defer close(release)
	configure(t, Options{CallTimeout: 100 * time.Millisecond, InFlight: 1}, fw)
	r := newRunner(t)
	_, err := r.Run(testSequence(t))
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("Run = %v, want a call timeout", err)
	}
}

func TestClosedFleetFailsFast(t *testing.T) {
	fw := newFakeWorker(t, "pipesim@1", "aaaa")
	configure(t, Options{}, fw)
	r := newRunner(t)
	Shutdown()
	if _, err := r.Run(testSequence(t)); err == nil {
		t.Fatal("Run succeeded on a closed fleet")
	}
}
