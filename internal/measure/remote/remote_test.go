package remote

// Unit tests of the fleet backend against fake workers: canned HTTP servers
// speaking the worker protocol with fabricated counters. The end-to-end
// loopback tests — real uopsd workers, byte-identical characterization
// output — live in internal/service (this package cannot import service
// without a cycle).

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
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

// fakeWorker is a canned HTTP server speaking the worker protocol through
// encoding/json in both directions, so the client's bodies are checked
// against the schema's reference reading. Measurement responses carry
// fabricated counters (Cycles = distinct instructions, TotalUops = kernel
// length times the copy count) so tests can verify delivery.
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
	reqs []MeasureRequest // every answered request
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
	total := len(req.Order)
	if req.Order == nil {
		total = len(req.Instrs)
	}
	for _, n := range req.Copies {
		resp.Counters = append(resp.Counters, Counters{Cycles: len(req.Instrs), TotalUops: total * n})
	}
	fw.mu.Lock()
	fw.reqs = append(fw.reqs, req)
	fw.mu.Unlock()
	json.NewEncoder(w).Encode(resp)
}

// requests returns every request the worker answered.
func (fw *fakeWorker) requests() []MeasureRequest {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return append([]MeasureRequest(nil), fw.reqs...)
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

// TestRunCopies: one measurement's readings are one request carrying the
// kernel once with its copy counts, under the runner's divider regime, and
// its counters come back in copy-count order.
func TestRunCopies(t *testing.T) {
	fw := newFakeWorker(t, "pipesim@1", "aaaa")
	configure(t, Options{}, fw)
	r := newRunner(t).(*Runner)
	r.SetDividerValues(pipesim.DividerValues(1))
	cs := make([]pipesim.Counters, 2)
	if err := r.RunCopies(testSequence(t), []int{2, 12}, cs); err != nil {
		t.Fatal(err)
	}
	if cs[0].TotalUops != 4 || cs[1].TotalUops != 24 || cs[0].Cycles != 2 || cs[1].Cycles != 2 {
		t.Errorf("counters = %+v, want TotalUops 4 then 24, Cycles 2", cs)
	}
	reqs := fw.requests()
	if len(reqs) != 1 {
		t.Fatalf("worker saw requests %+v, want one", reqs)
	}
	if req := reqs[0]; req.Gen != "Skylake" || !reflect.DeepEqual(req.Copies, []int{2, 12}) || req.Div != 1 ||
		len(req.Instrs) != 2 || req.Order != nil {
		t.Errorf("request = %+v, want the 2-instruction Skylake kernel with copies 2 and 12 and divider regime 1", req)
	}
	if s := fleetStats(t); s.Batches != 1 || s.Sequences != 2 || s.Retries != 0 {
		t.Errorf("stats = %+v, want 1 batch of 2 copy counts", s)
	}
}

// TestEachCallIsOneRequest: concurrent calls never share a request. With
// the worker's two slots held by the first two requests, three more calls
// wait for a slot instead of joining a request, so every request carries
// exactly the two copy counts of one call, the worker never has more than
// InFlight requests in flight, and no fleet goroutine outlives the calls.
func TestEachCallIsOneRequest(t *testing.T) {
	fw := newFakeWorker(t, "pipesim@1", "aaaa")
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock()
	var mu sync.Mutex
	maxInFlight := int64(0)
	fw.intercept = func(n int64, w http.ResponseWriter) bool {
		// The requests that arrived and are not answered yet, this one
		// included (a request is recorded before its response is written).
		inFlight := n - int64(len(fw.requests()))
		mu.Lock()
		maxInFlight = max(maxInFlight, inFlight)
		mu.Unlock()
		if n <= 2 {
			<-release
		}
		return false
	}
	configure(t, Options{InFlight: 2}, fw)
	code := testSequence(t)

	const calls = 5
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		r := newRunner(t).(*Runner)
		go func() {
			cs := make([]pipesim.Counters, 2)
			err := r.RunCopies(code, []int{2, 12}, cs)
			if err == nil && (cs[0].TotalUops != 4 || cs[1].TotalUops != 24) {
				err = fmt.Errorf("counters = %+v, want TotalUops 4 then 24", cs)
			}
			errs <- err
		}()
	}
	// Release the held requests once every call has been submitted and both
	// slots are taken (or after 10s: the checks below then say why not).
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if fleetStats(t).Sequences == 2*calls && fw.measures.Load() == 2 {
			break
		}
	}
	unblock()
	for i := 0; i < calls; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}

	reqs := fw.requests()
	for i, req := range reqs {
		if !reflect.DeepEqual(req.Copies, []int{2, 12}) {
			t.Errorf("request %d carried copy counts %v, want the two of one call (2 and 12)", i, req.Copies)
		}
	}
	if len(reqs) != calls {
		t.Errorf("worker answered %d requests, want %d", len(reqs), calls)
	}
	mu.Lock()
	if maxInFlight > 2 {
		t.Errorf("worker had %d requests in flight, want at most InFlight 2", maxInFlight)
	}
	mu.Unlock()
	if s := fleetStats(t); s.Batches != calls || s.Sequences != 2*calls {
		t.Errorf("stats = %+v, want %d batches of %d sequences", s, calls, 2*calls)
	}
	// Goroutines of fleets closed by earlier tests may take a moment to end.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		buf := make([]byte, 1<<20)
		var leaked []string
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "remote.(*fleet)") {
				leaked = append(leaked, g)
			}
		}
		if leaked == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d fleet goroutines outlive the calls:\n%s", len(leaked), strings.Join(leaked, "\n\n"))
		}
	}
}

// TestRunCopiesSequenceErrorFailsCall: a kernel error in the answer fails
// the whole call, without a retry.
func TestRunCopiesSequenceErrorFailsCall(t *testing.T) {
	fw := newFakeWorker(t, "pipesim@1", "aaaa")
	fw.intercept = func(n int64, w http.ResponseWriter) bool {
		fp, _ := ServingFingerprint(fw.fingerprint, fw.digest)
		json.NewEncoder(w).Encode(MeasureResponse{
			Fingerprint: fp, WireVersion: WireVersion, Error: "cycle limit exceeded",
		})
		return true
	}
	configure(t, Options{}, fw)
	r := newRunner(t).(*Runner)
	err := r.RunCopies(testSequence(t), []int{2, 12}, make([]pipesim.Counters, 2))
	if err == nil || !strings.Contains(err.Error(), "cycle limit exceeded") {
		t.Fatalf("RunCopies = %v, want the worker's kernel error", err)
	}
	if got := fw.measures.Load(); got != 1 {
		t.Errorf("worker saw %d requests, want 1 (kernel errors are permanent)", got)
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

// TestOversizedResponseIsRetried: a worker whose answer runs past
// maxResponseBody fails that attempt like any transient failure, and the
// call is sent again.
func TestOversizedResponseIsRetried(t *testing.T) {
	fw := newFakeWorker(t, "pipesim@1", "aaaa")
	fw.intercept = func(n int64, w http.ResponseWriter) bool {
		if n > 1 {
			return false
		}
		// A well-formed start, then twice the bound in padding; the writes
		// may fail once the client gives up on the body.
		fmt.Fprint(w, `{"fingerprint":"`)
		w.Write([]byte(strings.Repeat("x", 2*maxResponseBody)))
		return true
	}
	configure(t, Options{}, fw)
	c, err := newRunner(t).Run(testSequence(t))
	if err != nil {
		t.Fatal(err)
	}
	if c.Cycles != 2 || c.TotalUops != 2 {
		t.Errorf("counters after retry = %+v, want Cycles 2, TotalUops 2", c)
	}
	if got := fw.measures.Load(); got != 2 {
		t.Errorf("worker saw %d requests, want 2 (the oversized answer is retried)", got)
	}
	if s := fleetStats(t); s.Retries != 1 || s.Errors != 1 {
		t.Errorf("stats = %+v, want 1 retry after 1 error", s)
	}
}

func TestPermanentSequenceErrorNotRetried(t *testing.T) {
	fw := newFakeWorker(t, "pipesim@1", "aaaa")
	fw.intercept = func(n int64, w http.ResponseWriter) bool {
		fp, _ := ServingFingerprint(fw.fingerprint, fw.digest)
		json.NewEncoder(w).Encode(MeasureResponse{
			Fingerprint: fp, WireVersion: WireVersion, Error: "unknown instruction variant",
		})
		return true
	}
	configure(t, Options{}, fw)
	r := newRunner(t)
	_, err := r.Run(testSequence(t))
	if err == nil || !strings.Contains(err.Error(), "unknown instruction variant") {
		t.Fatalf("Run = %v, want the worker's kernel error", err)
	}
	if got := fw.measures.Load(); got != 1 {
		t.Errorf("worker saw %d requests, want 1 (kernel errors are permanent)", got)
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
			configure(t, Options{maxAttempts: 2}, fw)
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

// TestUnhealthyWorkerIsProbedBackIntoRotation: three consecutive failed
// requests take a worker out of rotation, and its slot carries nothing more
// until a /healthz probe answers. The call those requests carried then
// succeeds within the same Run.
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
	configure(t, Options{callTimeout: 100 * time.Millisecond, InFlight: 1}, fw)
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

// countingConn counts the Write calls made on a connection.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestEachRequestIsOneWrite: the client writes each /v1/measure request,
// headers and body together, in one Write on its connection, for kernels
// that grow from call to call.
func TestEachRequestIsOneWrite(t *testing.T) {
	fw := newFakeWorker(t, "pipesim@1", "aaaa")
	var writes atomic.Int64
	var d net.Dialer
	transport := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := d.DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return countingConn{Conn: c, writes: &writes}, nil
	}}
	t.Cleanup(transport.CloseIdleConnections)
	configure(t, Options{Client: &http.Client{Transport: transport}}, fw)
	r := newRunner(t).(*Runner)
	writes.Store(0) // the handshake's
	const calls = 5
	for i := 1; i <= calls; i++ {
		cs := make([]pipesim.Counters, 2)
		if err := r.RunCopies(testSequence(t).Repeat(i), []int{2, 12}, cs); err != nil {
			t.Fatal(err)
		}
		if cs[1].TotalUops != 2*i*12 {
			t.Errorf("call %d: counters %+v, want TotalUops %d", i, cs, 2*i*12)
		}
	}
	if got := writes.Load(); got != calls {
		t.Errorf("%d requests took %d writes, want one each", calls, got)
	}
	if got := fw.measures.Load(); got != calls {
		t.Errorf("the worker saw %d requests, want %d", got, calls)
	}
}
