package service

// Loopback-fleet tests: real uopsd workers (this service over a pipesim
// engine, served by httptest), a front-tier engine on the remote backend, and
// the acceptance bar of the fleet design — characterization output through
// the fleet is byte-identical to a local run, under any worker count and
// across mid-run worker failures. These tests share the remote backend's
// process-global configuration, so none of them run in parallel.
//
// Scope: the regular runs characterize a sampled variant slice (fast enough
// for -race CI); set UOPS_FLEET_FULL=1 to run the full-ISA Skylake
// determinism test (the acceptance criterion verbatim, minutes of runtime).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/core"
	"uopsinfo/internal/engine"
	"uopsinfo/internal/iaca"
	"uopsinfo/internal/isa"
	"uopsinfo/internal/measure/remote"
	"uopsinfo/internal/pipesim"
	"uopsinfo/internal/uarch"
	"uopsinfo/internal/xmlout"
)

// fleetWorker is one loopback uopsd worker: a real Service over its own
// pipesim engine. kill makes the worker abruptly reset every subsequent
// connection, simulating a crashed machine without tearing the test server
// down mid-handler.
type fleetWorker struct {
	srv      *httptest.Server
	measures atomic.Int64
	dead     atomic.Bool
}

func (w *fleetWorker) kill() { w.dead.Store(true) }

func startFleetWorker(t *testing.T) *fleetWorker {
	t.Helper()
	svc, _ := newTestService(t, engine.Config{})
	fw := &fleetWorker{}
	fw.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fw.dead.Load() {
			// A dead machine answers nothing: reset the connection so the
			// client sees a transport error, not an orderly HTTP status.
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
					return
				}
			}
			panic(http.ErrAbortHandler)
		}
		if r.Method == http.MethodPost && r.URL.Path == "/v1/measure" {
			fw.measures.Add(1)
		}
		svc.ServeHTTP(w, r)
	}))
	t.Cleanup(fw.srv.Close)
	return fw
}

// configureFleet points the remote backend at n fresh loopback workers.
func configureFleet(t *testing.T, n int) []*fleetWorker {
	t.Helper()
	workers := make([]*fleetWorker, n)
	urls := make([]string, n)
	for i := range workers {
		workers[i] = startFleetWorker(t)
		urls[i] = workers[i].srv.URL
	}
	if err := remote.Configure(remote.Options{Workers: urls}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(remote.Shutdown)
	return workers
}

// remoteEngine builds a front-tier engine measuring on the configured fleet.
func remoteEngine(t *testing.T) *engine.Engine {
	t.Helper()
	eng, err := engine.New(engine.Config{Workers: 4, Backend: remote.BackendName})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// renderXML renders an ArchResult exactly the way cmd/uopsinfo writes its
// results file, so byte equality here is byte equality of the tool's output.
func renderXML(t *testing.T, arch *uarch.Arch, res *core.ArchResult) []byte {
	t.Helper()
	var analyzers []*iaca.Analyzer
	for _, v := range iaca.SupportedVersions(arch.Gen()) {
		a, err := iaca.New(v, arch)
		if err != nil {
			t.Fatal(err)
		}
		analyzers = append(analyzers, a)
	}
	var buf bytes.Buffer
	if err := xmlout.Write(&buf, xmlout.Single(xmlout.FromArchResult(res, analyzers))); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fleetRunOptions is the variant slice the loopback tests characterize: every
// 40th Skylake variant — broad enough to cross instruction classes (loads,
// stores, divides, eliminated moves), small enough for -race CI.
func fleetRunOptions(arch *uarch.Arch) engine.RunOptions {
	names := arch.InstrSet().Names()
	var only []string
	for i := 0; i < len(names); i += 40 {
		only = append(only, names[i])
	}
	return engine.RunOptions{Only: only}
}

// localReferenceXML characterizes the same selection on a plain local engine.
func localReferenceXML(t *testing.T, arch *uarch.Arch, opts engine.RunOptions) []byte {
	t.Helper()
	eng, err := engine.New(engine.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.CharacterizeArch(arch.Gen(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return renderXML(t, arch, res)
}

func TestFleetOutputMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback fleet characterization in -short mode")
	}
	arch, err := uarch.ByName("Skylake")
	if err != nil {
		t.Fatal(err)
	}
	opts := fleetRunOptions(arch)
	if os.Getenv("UOPS_FLEET_FULL") != "" {
		opts = engine.RunOptions{} // the full ISA: the acceptance run
	}
	want := localReferenceXML(t, arch, opts)

	for _, n := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("%d-workers", n), func(t *testing.T) {
			workers := configureFleet(t, n)
			eng := remoteEngine(t)
			res, err := eng.CharacterizeArch(arch.Gen(), opts)
			if err != nil {
				t.Fatal(err)
			}
			got := renderXML(t, arch, res)
			if !bytes.Equal(got, want) {
				t.Fatalf("fleet output (%d workers) differs from local output (%d vs %d bytes)",
					n, len(got), len(want))
			}
			// Every worker of a multi-worker fleet must have taken real work.
			if n > 1 {
				for i, w := range workers {
					if w.measures.Load() == 0 {
						t.Errorf("worker %d served no measurement batches", i)
					}
				}
			}
		})
	}
}

func TestFleetSurvivesWorkerDeathMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback fleet characterization in -short mode")
	}
	arch, err := uarch.ByName("Skylake")
	if err != nil {
		t.Fatal(err)
	}
	opts := fleetRunOptions(arch)
	want := localReferenceXML(t, arch, opts)

	workers := configureFleet(t, 2)
	eng := remoteEngine(t)

	// Kill worker 0 as soon as it has served a few batches: the run is then
	// mid-flight, and every sequence it still holds must be retried onto the
	// survivor with no effect on the output.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		for workers[0].measures.Load() < 3 {
			if workers[1].measures.Load() > 50 { // run nearly done without w0; kill anyway
				break
			}
			time.Sleep(time.Millisecond)
		}
		workers[0].kill()
	}()
	res, err := eng.CharacterizeArch(arch.Gen(), opts)
	<-killed
	if err != nil {
		t.Fatalf("characterization did not survive worker death: %v", err)
	}
	got := renderXML(t, arch, res)
	if !bytes.Equal(got, want) {
		t.Fatalf("output after worker death differs from local output (%d vs %d bytes)", len(got), len(want))
	}
	if st := eng.Stats(); st.Fleet == nil || st.Fleet.Retries == 0 {
		t.Logf("fleet stats after worker death: %+v", st.Fleet)
	}
}

func TestFleetHandshakeMismatchIsHardError(t *testing.T) {
	real := startFleetWorker(t)
	// A worker from a different build: same protocol, different serving
	// fingerprint.
	impostor := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"serving":{"name":"pipesim","version":"999","fingerprint":"pipesim@999","measureDigest":"ffff","wireVersion":%d}}`,
			remote.WireVersion)
	}))
	t.Cleanup(impostor.Close)
	err := remote.Configure(remote.Options{Workers: []string{real.srv.URL, impostor.URL}})
	if err == nil {
		remote.Shutdown()
		t.Fatal("Configure accepted a mixed-version fleet")
	}
	if !strings.Contains(err.Error(), "fleet version mismatch") {
		t.Errorf("mismatch error = %v", err)
	}
}

func TestFleetCountersInStatsAndMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback fleet characterization in -short mode")
	}
	configureFleet(t, 2)
	eng := remoteEngine(t)
	front, err := New(Config{Engine: eng, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	code, body := get(t, front, "/v1/arch/skylake?only="+strings.Join(testOnly, ","))
	if code != http.StatusOK {
		t.Fatalf("GET /v1/arch/skylake = %d: %s", code, body)
	}

	code, body = get(t, front, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/stats = %d", code)
	}
	stats := string(body)
	for _, want := range []string{`"fleet"`, `"fingerprint": "pipesim@`, `"workers"`} {
		if !strings.Contains(stats, want) {
			t.Errorf("/v1/stats lacks %s:\n%s", want, stats)
		}
	}
	if !strings.Contains(stats, `"remote"`) {
		t.Errorf("/v1/stats does not name the remote backend:\n%s", stats)
	}

	code, body = get(t, front, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	metrics := string(body)
	for _, want := range []string{
		"uopsd_fleet_batches_total",
		"uopsd_fleet_sequences_total",
		"uopsd_fleet_worker_healthy{worker=",
		"uopsd_fleet_worker_batches_total{worker=",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %s", want)
		}
	}
}

func TestMeasureEndpointCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback fleet characterization in -short mode")
	}
	workers := configureFleet(t, 1)
	eng := remoteEngine(t)
	if _, err := eng.CharacterizeArch(uarch.Skylake, engine.RunOptions{Only: testOnly}); err != nil {
		t.Fatal(err)
	}
	// The worker's own service must have accounted the measurement batches.
	resp, err := http.Get(workers[0].srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	stats := buf.String()
	if !strings.Contains(stats, `"measureBatches"`) {
		t.Fatalf("worker /v1/stats lacks measureBatches:\n%s", stats)
	}
	if strings.Contains(stats, `"measureBatches": 0,`) {
		t.Errorf("worker served no measurement batches:\n%s", stats)
	}
}

// TestMeasureEndpointRunnersCarryNothing: one worker answers interleaved
// /v1/measure requests from 4 goroutines — a DIV_R64 kernel under both
// divider regimes and a plain kernel — on the warm runners of its free
// list. Each answer must equal a fresh Machine's reading under the
// request's regime: a reused runner carries no regime from an earlier
// request, and no two requests share one (the race detector watches). The
// free list keeps the runners: at most one per request in flight.
func TestMeasureEndpointRunnersCarryNothing(t *testing.T) {
	svc, _ := newTestService(t, engine.Config{})
	arch := uarch.Get(uarch.Skylake)
	set := arch.InstrSet()
	div := asmgen.MustInst(set.Lookup("DIV_R64"), asmgen.RegOperand(isa.RBX))
	add := asmgen.MustInst(set.Lookup("ADD_R64_R64"), asmgen.RegOperand(isa.RAX), asmgen.RegOperand(isa.RBX))
	load := asmgen.MustInst(set.Lookup("MOV_R64_M64"), asmgen.RegOperand(isa.RCX), asmgen.MemOperand(isa.RSI, 0x2040))
	copies := []int{2, 12}
	type query struct {
		code asmgen.Sequence
		div  pipesim.DividerValues
		body []byte
		want []pipesim.Counters
	}
	queries := []*query{
		{code: asmgen.Sequence{div}, div: pipesim.SlowDividerValues},
		{code: asmgen.Sequence{div}, div: pipesim.FastDividerValues},
		{code: asmgen.Sequence{add, load}, div: pipesim.SlowDividerValues},
	}
	for _, q := range queries {
		m := pipesim.New(arch)
		m.SetDividerValues(q.div)
		want, err := m.RunCopies(q.code, copies...)
		if err != nil {
			t.Fatal(err)
		}
		q.want = want
		q.body = remote.AppendRequest(nil, "skylake", q.div, q.code, copies)
	}
	if reflect.DeepEqual(queries[0].want, queries[1].want) {
		t.Fatal("DIV_R64 reads the same under both regimes; the test could not see a carried regime")
	}

	const goroutines, rounds = 4, 12
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				q := queries[(g+round)%len(queries)]
				rec := httptest.NewRecorder()
				svc.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/measure", bytes.NewReader(q.body)))
				if rec.Code != http.StatusOK {
					t.Errorf("POST /v1/measure = %d: %s", rec.Code, rec.Body)
					return
				}
				resp, err := remote.ParseResponse(rec.Body.Bytes())
				if err != nil || resp.Error != "" {
					t.Errorf("answer %s: %v %s", rec.Body, err, resp.Error)
					return
				}
				got := make([]pipesim.Counters, len(resp.Counters))
				for i, c := range resp.Counters {
					got[i] = pipesim.Counters{Cycles: c.Cycles, TotalUops: c.TotalUops, IssuedUops: c.IssuedUops, ElimUops: c.ElimUops}
					copy(got[i].PortUops[:], c.PortUops)
				}
				if !reflect.DeepEqual(got, q.want) {
					t.Errorf("goroutine %d round %d, regime %d: answered %+v, a fresh Machine reads %+v", g, round, q.div, got, q.want)
				}
			}
		}()
	}
	wg.Wait()
	if n := len(svc.runners[uarch.Skylake]); n < 1 || n > goroutines {
		t.Errorf("the free list keeps %d Skylake runners after %d concurrent requesters, want 1 to %d", n, goroutines, goroutines)
	}
}

// TestMeasureBudgetRefusesOversizedBatch: a request whose copy counts each
// keep the kernel within remote.MaxSeqLen but together ask for more than
// maxMeasureInstrs instructions is refused with 400 before anything is
// simulated. An empty kernel counts as one instruction per copy, because it
// is still renamed once per copy.
func TestMeasureBudgetRefusesOversizedBatch(t *testing.T) {
	kernels := map[string][]remote.Inst{
		"one-instruction": {{Name: "ADD_R64_R64", Ops: []remote.Op{{Reg: "RAX"}, {Reg: "RBX"}}}},
		"empty":           {},
	}
	for name, instrs := range kernels {
		t.Run(name, func(t *testing.T) {
			svc, _ := newTestService(t, engine.Config{})
			req := remote.MeasureRequest{Gen: "skylake", Instrs: instrs}
			for n := 0; n <= maxMeasureInstrs/remote.MaxSeqLen; n++ {
				req.Copies = append(req.Copies, remote.MaxSeqLen)
			}
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			svc.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/measure", bytes.NewReader(body)))
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "budget") {
				t.Errorf("over-budget request of %d copy counts = %d %s, want 400 naming the budget", len(req.Copies), rec.Code, rec.Body)
			}
			if c := svc.Counters(); c.MeasureSeqs != 0 || c.MeasureBatches != 0 {
				t.Errorf("over-budget request was measured: %d requests, %d copy counts", c.MeasureBatches, c.MeasureSeqs)
			}
		})
	}
}
