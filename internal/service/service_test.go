package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"uopsinfo/internal/engine"
	"uopsinfo/internal/iaca"
	"uopsinfo/internal/uarch"
	"uopsinfo/internal/xmlout"
)

// testOnly is a small variant selection that keeps the measurement part of
// the endpoint tests fast; the cold cost is dominated by blocking discovery.
var testOnly = []string{"ADD_R64_R64", "PXOR_XMM_XMM"}

func newTestService(t *testing.T, ecfg engine.Config) (*Service, *engine.Engine) {
	t.Helper()
	if ecfg.Workers == 0 {
		ecfg.Workers = 2
	}
	eng, err := engine.New(ecfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(Config{Engine: eng, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return svc, eng
}

// get performs one request against the handler and returns status and body.
func get(t *testing.T, svc *Service, target string) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
	return rec.Code, rec.Body.Bytes()
}

func TestHealthz(t *testing.T) {
	svc, _ := newTestService(t, engine.Config{})
	code, body := get(t, svc, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("GET /healthz = %d, want 200", code)
	}
	var resp map[string]string
	if err := json.Unmarshal(body, &resp); err != nil || resp["status"] != "ok" {
		t.Errorf("healthz body %q (err %v)", body, err)
	}
}

func TestBackendsListsRegistry(t *testing.T) {
	svc, _ := newTestService(t, engine.Config{})
	code, body := get(t, svc, "/v1/backends")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/backends = %d, want 200", code)
	}
	var resp struct {
		Backends []BackendInfo `json:"backends"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	foundDefault := false
	for _, b := range resp.Backends {
		if b.Name == "pipesim" && b.Default && b.Version != "" {
			foundDefault = true
		}
	}
	if !foundDefault {
		t.Errorf("backends response %s does not list pipesim as the default", body)
	}
}

func TestArchEndpoint(t *testing.T) {
	svc, eng := newTestService(t, engine.Config{CacheDir: t.TempDir()})
	target := "/v1/arch/skylake?only=" + strings.Join(testOnly, ",")

	code, body := get(t, svc, target)
	if code != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", target, code, body)
	}
	var doc xmlout.Document
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Architectures) != 1 || doc.Architectures[0].Name != "Skylake" {
		t.Fatalf("response document: %+v", doc.Architectures)
	}
	if got := len(doc.Architectures[0].Instructions); got != len(testOnly) {
		t.Fatalf("%d instructions, want %d", got, len(testOnly))
	}
	for _, name := range testOnly {
		inst := doc.Architectures[0].Lookup(name)
		if inst == nil || inst.Measured == nil || inst.Measured.Uops == 0 {
			t.Errorf("%s missing or unmeasured in response: %+v", name, inst)
		}
	}

	t.Run("xml format matches the results-file rendering", func(t *testing.T) {
		code, xmlBody := get(t, svc, target+"&format=xml")
		if code != http.StatusOK {
			t.Fatalf("format=xml = %d", code)
		}
		res, err := eng.CharacterizeArch(uarch.Skylake, engine.RunOptions{Only: testOnly})
		if err != nil {
			t.Fatal(err)
		}
		// The reference rendering is built exactly the way cmd/uopsinfo
		// builds the results file: measured results plus the per-version
		// IACA entries for the generation.
		var analyzers []*iaca.Analyzer
		for _, v := range iaca.SupportedVersions(uarch.Skylake) {
			a, err := iaca.New(v, uarch.Get(uarch.Skylake))
			if err != nil {
				t.Fatal(err)
			}
			analyzers = append(analyzers, a)
		}
		if len(analyzers) == 0 {
			t.Fatal("no IACA versions support Skylake; the byte-identity check would be vacuous")
		}
		var want bytes.Buffer
		if err := xmlout.Write(&want, xmlout.Single(xmlout.FromArchResult(res, analyzers))); err != nil {
			t.Fatal(err)
		}
		if string(xmlBody) != want.String() {
			t.Errorf("XML response is not byte-identical to the results-file rendering (%d vs %d bytes)",
				len(xmlBody), want.Len())
		}
		parsed, err := xmlout.Read(bytes.NewReader(xmlBody))
		if err != nil {
			t.Fatal(err)
		}
		if len(parsed.Architectures) != 1 || len(parsed.Architectures[0].Instructions) != len(testOnly) {
			t.Errorf("XML response did not round-trip through xmlout.Read")
		}
	})

	t.Run("accept header selects xml", func(t *testing.T) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("GET", target, nil)
		req.Header.Set("Accept", "application/xml")
		svc.ServeHTTP(rec, req)
		if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "xml") {
			t.Errorf("Accept: application/xml answered with Content-Type %q", ct)
		}
	})
}

func TestVariantEndpoint(t *testing.T) {
	svc, _ := newTestService(t, engine.Config{CacheDir: t.TempDir()})
	code, body := get(t, svc, "/v1/arch/Skylake/variant/ADD_R64_R64")
	if code != http.StatusOK {
		t.Fatalf("variant request = %d: %s", code, body)
	}
	var doc xmlout.Document
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Architectures) != 1 || len(doc.Architectures[0].Instructions) != 1 ||
		doc.Architectures[0].Instructions[0].Name != "ADD_R64_R64" {
		t.Errorf("variant response: %+v", doc.Architectures)
	}
}

// TestErrorStatuses checks the 4xx surface: request-derived garbage must map
// to client errors — and must not terminate the server, which keeps serving.
func TestErrorStatuses(t *testing.T) {
	svc, _ := newTestService(t, engine.Config{})
	cases := []struct {
		target string
		want   int
	}{
		{"/v1/arch/pentium9", http.StatusBadRequest},
		{"/v1/arch/Generation(99)", http.StatusBadRequest},
		{"/v1/arch/skylake?only=NOT_AN_INSTRUCTION", http.StatusBadRequest},
		{"/v1/arch/skylake/variant/NOT_AN_INSTRUCTION", http.StatusNotFound},
		{"/v1/arch/pentium9/variant/ADD_R64_R64", http.StatusBadRequest},
		{"/v1/nosuch", http.StatusNotFound},
	}
	for _, tc := range cases {
		code, body := get(t, svc, tc.target)
		if code != tc.want {
			t.Errorf("GET %s = %d, want %d (%s)", tc.target, code, tc.want, body)
		}
	}
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, httptest.NewRequest("POST", "/healthz", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /healthz = %d, want 405", rec.Code)
	}

	// The server survived all of it and still answers.
	if code, _ := get(t, svc, "/healthz"); code != http.StatusOK {
		t.Errorf("service stopped serving after client errors: healthz = %d", code)
	}
	c := svc.Counters()
	if c.Errors != len(cases)+1 {
		t.Errorf("error counter = %d, want %d", c.Errors, len(cases)+1)
	}
	if c.Requests != len(cases)+2 {
		t.Errorf("request counter = %d, want %d", c.Requests, len(cases)+2)
	}
	if c.Panics != 0 {
		t.Errorf("panic counter = %d, want 0", c.Panics)
	}
}

// TestCoalescingStorm is the service-level singleflight test: K concurrent
// identical cold requests through the full HTTP stack perform exactly one
// measurement run, answer byte-identical bodies, and the stats endpoint
// reports one run and K-1 coalesced waiters.
func TestCoalescingStorm(t *testing.T) {
	const waiters = 4
	released := make(chan struct{})
	var gate sync.Once
	svc, eng := newTestService(t, engine.Config{
		CacheDir: t.TempDir(),
		BlockingProgress: func(gen uarch.Generation, done, total int, name string) {
			gate.Do(func() { <-released })
		},
	})
	srv := httptest.NewServer(svc)
	defer srv.Close()
	target := srv.URL + "/v1/arch/sandy-bridge?only=" + strings.Join(testOnly, ",")

	waitFor := func(what string, cond func(engine.Stats) bool) bool {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if cond(eng.Stats()) {
				return true
			}
			time.Sleep(time.Millisecond)
		}
		t.Errorf("timed out waiting for %s (stats: %+v)", what, eng.Stats())
		return false
	}

	bodies := make([][]byte, waiters+1)
	codes := make([]int, waiters+1)
	var wg sync.WaitGroup
	launch := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(target)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			bodies[i], err = io.ReadAll(resp.Body)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}()
	}

	launch(0)
	if !waitFor("the leader to start", func(s engine.Stats) bool { return s.Runs == 1 }) {
		close(released)
		wg.Wait()
		t.FailNow()
	}
	for i := 1; i <= waiters; i++ {
		launch(i)
	}
	ok := waitFor("all waiters to attach", func(s engine.Stats) bool { return s.CoalescedWaiters == waiters })
	close(released)
	wg.Wait()
	if !ok {
		t.FailNow()
	}

	for i, body := range bodies {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, codes[i], body)
		}
		if !bytes.Equal(body, bodies[0]) {
			t.Errorf("request %d body differs from request 0", i)
		}
	}

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Engine.Runs != 1 || stats.Engine.CoalescedWaiters != waiters {
		t.Errorf("engine stats: %d runs, %d coalesced waiters, want 1, %d",
			stats.Engine.Runs, stats.Engine.CoalescedWaiters, waiters)
	}
	if stats.Engine.VariantsMeasured != len(testOnly) {
		t.Errorf("%d variants measured for %d requests, want exactly %d",
			stats.Engine.VariantsMeasured, waiters+1, len(testOnly))
	}
	if stats.Backend.Name != "pipesim" {
		t.Errorf("stats backend = %q", stats.Backend.Name)
	}
	if got := stats.Service.Requests; got != waiters+2 {
		t.Errorf("service request counter = %d, want %d", got, waiters+2)
	}
}

// TestPanicIsContainedAnd500 checks the last line of defense: a handler
// panic must be caught, counted and converted into a 500 — one poisoned
// request must not take the daemon down.
func TestPanicIsContainedAnd500(t *testing.T) {
	svc, _ := newTestService(t, engine.Config{})
	svc.mux.HandleFunc("GET /v1/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	code, _ := get(t, svc, "/v1/boom")
	if code != http.StatusInternalServerError {
		t.Errorf("panicking handler answered %d, want 500", code)
	}
	if code, _ := get(t, svc, "/healthz"); code != http.StatusOK {
		t.Errorf("service died after a handler panic: healthz = %d", code)
	}
	c := svc.Counters()
	if c.Panics != 1 || c.Errors != 1 {
		t.Errorf("counters after panic: %+v, want 1 panic, 1 error", c)
	}
}

// TestNewRequiresEngine pins the constructor's contract.
func TestNewRequiresEngine(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted a nil engine")
	}
}

// TestOnlyIsCanonicalized checks that equivalent ?only spellings — permuted
// order, duplicated names — resolve to one engine digest: the second request
// is answered wholly from the store, nothing is measured twice, and the
// bodies are byte-identical.
func TestOnlyIsCanonicalized(t *testing.T) {
	svc, eng := newTestService(t, engine.Config{CacheDir: t.TempDir()})
	code, first := get(t, svc, "/v1/arch/skylake?only=PXOR_XMM_XMM,ADD_R64_R64")
	if code != http.StatusOK {
		t.Fatalf("first request = %d: %s", code, first)
	}
	code, second := get(t, svc, "/v1/arch/skylake?only=ADD_R64_R64,PXOR_XMM_XMM,ADD_R64_R64")
	if code != http.StatusOK {
		t.Fatalf("second request = %d: %s", code, second)
	}
	if !bytes.Equal(first, second) {
		t.Error("equivalent ?only spellings answered different bodies")
	}
	st := eng.Stats()
	if st.ResultHits != 1 {
		t.Errorf("permuted+deduplicated ?only was not a store hit: %+v", st)
	}
	if st.VariantsMeasured != 2 {
		t.Errorf("%d variants measured, want 2 (duplicate must not re-measure)", st.VariantsMeasured)
	}
}

// TestAcceptHeaderNegotiation checks the format negotiation on whole
// media-type tokens: a browser's Accept header (text/html first) and an
// explicit json preference stay on the JSON default even though the header
// contains the substring "xml".
func TestAcceptHeaderNegotiation(t *testing.T) {
	cases := []struct {
		accept  string
		wantXML bool
	}{
		{"", false},
		{"application/xml", true},
		{"text/xml;q=0.9", true},
		{"text/html,application/xhtml+xml,application/xml;q=0.9,*/*;q=0.8", false},
		{"application/json, text/xml", false},
		{"*/*", false},
	}
	for _, tc := range cases {
		req := httptest.NewRequest("GET", "/v1/arch/skylake", nil)
		if tc.accept != "" {
			req.Header.Set("Accept", tc.accept)
		}
		if got := wantXML(req); got != tc.wantXML {
			t.Errorf("wantXML(Accept: %q) = %v, want %v", tc.accept, got, tc.wantXML)
		}
	}
}
