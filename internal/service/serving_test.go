package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"uopsinfo/internal/engine"
	"uopsinfo/internal/uarch"
)

// condGet performs one GET with an If-None-Match header.
func condGet(t *testing.T, svc *Service, target, inm string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", target, nil)
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	svc.ServeHTTP(rec, req)
	return rec
}

// TestConditionalGet pins the ETag contract on the characterization
// endpoints: a warm conditional request with a matching validator answers 304
// with no body and, critically, without invoking the engine at all.
func TestConditionalGet(t *testing.T) {
	svc, eng := newTestService(t, engine.Config{CacheDir: t.TempDir()})
	target := "/v1/arch/skylake?only=" + strings.Join(testOnly, ",")

	warm := condGet(t, svc, target, "")
	if warm.Code != http.StatusOK {
		t.Fatalf("warm request = %d: %s", warm.Code, warm.Body.Bytes())
	}
	tag := warm.Header().Get("ETag")
	if tag == "" || !strings.HasPrefix(tag, `"`) {
		t.Fatalf("ETag = %q, want a quoted validator", tag)
	}

	before := eng.Stats()
	for _, inm := range []string{tag, "*", `"other-tag", ` + tag, "W/" + tag} {
		rec := condGet(t, svc, target, inm)
		if rec.Code != http.StatusNotModified {
			t.Errorf("If-None-Match: %s = %d, want 304", inm, rec.Code)
		}
		if rec.Body.Len() != 0 {
			t.Errorf("If-None-Match: %s carried a %d-byte body", inm, rec.Body.Len())
		}
		if got := rec.Header().Get("ETag"); got != tag {
			t.Errorf("304 ETag = %q, want %q", got, tag)
		}
	}
	if after := eng.Stats(); !reflect.DeepEqual(after, before) {
		t.Errorf("conditional requests touched the engine: %+v -> %+v", before, after)
	}

	// A stale validator still gets the full body.
	rec := condGet(t, svc, target, `"stale"`)
	if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
		t.Errorf("stale If-None-Match = %d with %d bytes, want a full 200", rec.Code, rec.Body.Len())
	}

	// Different representations have different validators (equal tags must
	// mean byte-identical bodies).
	xmlRec := condGet(t, svc, target+"&format=xml", "")
	if xmlTag := xmlRec.Header().Get("ETag"); xmlTag == tag {
		t.Error("JSON and XML representations share one ETag")
	}

	// The variant endpoint is a conditional resource too.
	vTarget := "/v1/arch/skylake/variant/" + testOnly[0]
	vWarm := condGet(t, svc, vTarget, "")
	vTag := vWarm.Header().Get("ETag")
	if vTag == "" {
		t.Fatal("variant response has no ETag")
	}
	if rec := condGet(t, svc, vTarget, vTag); rec.Code != http.StatusNotModified {
		t.Errorf("variant If-None-Match = %d, want 304", rec.Code)
	}
}

// TestWholeGenerationRenderedOnce pins the kept whole-generation bodies: a
// repeat is written from the first response's bytes, under the same ETag and
// without reaching the engine, separately per format. A request that failed,
// a ?only request and a variant request keep nothing.
func TestWholeGenerationRenderedOnce(t *testing.T) {
	svc, eng := newTestService(t, engine.Config{CacheDir: t.TempDir()})
	const target = "/v1/arch/skylake?quick=1&format="
	runs := func() int { return eng.Stats().Runs }
	renderHits := func() int { return svc.Counters().RenderHits }

	// A request whose client is already gone fails, and keeps nothing.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gone := httptest.NewRecorder()
	svc.ServeHTTP(gone, httptest.NewRequest("GET", target+"json", nil).WithContext(ctx))
	if c := svc.Counters(); c.ClientGone != 1 || c.RenderHits != 0 {
		t.Fatalf("cancelled request: counters %+v, want ClientGone 1 and RenderHits 0", c)
	}

	for _, format := range []string{"json", "xml"} {
		r0, h0 := runs(), renderHits()
		first := do(t, svc, "GET", target+format)
		if first.Code != http.StatusOK {
			t.Fatalf("%s: first request = %d: %s", format, first.Code, first.Body.Bytes())
		}
		if runs() != r0+1 || renderHits() != h0 {
			t.Errorf("%s: first request: %d runs, %d render hits, want %d and %d", format, runs(), renderHits(), r0+1, h0)
		}
		repeat := do(t, svc, "GET", target+format)
		if repeat.Code != first.Code {
			t.Errorf("%s: repeat = %d, want %d", format, repeat.Code, first.Code)
		}
		for _, h := range []string{"ETag", "Content-Type"} {
			if got, want := repeat.Header().Get(h), first.Header().Get(h); got != want || want == "" {
				t.Errorf("%s: repeat %s = %q, want %q", format, h, got, want)
			}
		}
		if !bytes.Equal(repeat.Body.Bytes(), first.Body.Bytes()) {
			t.Errorf("%s: repeat body differs from the first (%d vs %d bytes)", format, repeat.Body.Len(), first.Body.Len())
		}
		if runs() != r0+1 || renderHits() != h0+1 {
			t.Errorf("%s: repeat: %d runs, %d render hits, want %d and %d", format, runs(), renderHits(), r0+1, h0+1)
		}

		// Concurrent repeats share the kept bytes.
		var wg sync.WaitGroup
		recs := make([]*httptest.ResponseRecorder, 2)
		for i := range recs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				recs[i] = do(t, svc, "GET", target+format)
			}()
		}
		wg.Wait()
		for i, rec := range recs {
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), first.Body.Bytes()) {
				t.Errorf("%s: concurrent repeat %d = %d with %d bytes, want the first response", format, i, rec.Code, rec.Body.Len())
			}
		}
		if runs() != r0+1 || renderHits() != h0+3 {
			t.Errorf("%s: concurrent repeats: %d runs, %d render hits, want %d and %d", format, runs(), renderHits(), r0+1, h0+3)
		}

		if format != "xml" {
			continue
		}
		res, err := eng.CharacterizeArch(uarch.Skylake, engine.RunOptions{SkipLatency: true})
		if err != nil {
			t.Fatal(err)
		}
		if want := renderXML(t, uarch.Get(uarch.Skylake), res); !bytes.Equal(repeat.Body.Bytes(), want) {
			t.Errorf("kept XML is not byte-identical to the results-file rendering (%d vs %d bytes)", repeat.Body.Len(), len(want))
		}
	}

	// ?only and variant responses are rendered per request.
	for _, sel := range []string{"/v1/arch/skylake?quick=1&only=" + testOnly[0], "/v1/arch/skylake/variant/" + testOnly[0]} {
		h0 := renderHits()
		for i := 0; i < 2; i++ {
			if rec := do(t, svc, "GET", sel); rec.Code != http.StatusOK {
				t.Fatalf("GET %s = %d: %s", sel, rec.Code, rec.Body.Bytes())
			}
		}
		if renderHits() != h0 {
			t.Errorf("repeating %s raised RenderHits from %d to %d", sel, h0, renderHits())
		}
	}
}

// TestMetricsEndpoint checks /metrics is a parseable Prometheus text
// exposition whose numbers agree with the JSON counters.
func TestMetricsEndpoint(t *testing.T) {
	svc, _ := newTestService(t, engine.Config{CacheDir: t.TempDir()})
	if code, _ := get(t, svc, "/v1/arch/skylake?only="+testOnly[0]); code != http.StatusOK {
		t.Fatalf("warm-up request = %d", code)
	}
	if code, _ := get(t, svc, "/v1/arch/nope"); code != http.StatusBadRequest {
		t.Fatalf("error request = %d, want 400", code)
	}

	rec := do(t, svc, "GET", "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}

	comment := regexp.MustCompile(`^# (HELP|TYPE) [a-z_]+ .+$`)
	sample := regexp.MustCompile(`^([a-z_]+)(\{[^{}]*\})? (-?[0-9.e+]+)$`)
	values := map[string]float64{}
	for i, line := range strings.Split(strings.TrimRight(rec.Body.String(), "\n"), "\n") {
		if comment.MatchString(line) {
			continue
		}
		m := sample.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d is neither comment nor sample: %q", i+1, line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("line %d value: %v", i+1, err)
		}
		values[m[1]+m[2]] = v
	}

	c := svc.Counters()
	es := svc.eng.Stats()
	// The exposition was assembled inside the /metrics request itself, so its
	// request count is exactly the live counter at that moment.
	for name, want := range map[string]float64{
		"uopsd_http_requests_total":     float64(c.Requests),
		"uopsd_http_errors_total":       float64(c.Errors),
		"uopsd_engine_runs_total":       float64(es.Runs),
		"uopsd_http_rate_limited_total": 0,
	} {
		got, ok := values[name]
		if !ok {
			t.Errorf("metric %s missing from the exposition", name)
		} else if got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	if values["uopsd_engine_variants_measured_total"] < 1 {
		t.Error("variants-measured counter not exposed")
	}
}

// TestRateLimiting checks the token bucket end to end: burst requests pass,
// the next is 429 with a Retry-After, probes stay exempt, and refilled tokens
// admit again.
func TestRateLimiting(t *testing.T) {
	eng, err := engine.New(engine.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(Config{Engine: eng, Log: t.Logf, RateLimit: 1, RateBurst: 2})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	now := time.Now()
	svc.limiter.now = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}

	for i := 0; i < 2; i++ {
		if rec := do(t, svc, "GET", "/v1/backends"); rec.Code != http.StatusOK {
			t.Fatalf("request %d within burst = %d", i, rec.Code)
		}
	}
	rec := do(t, svc, "GET", "/v1/backends")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("request past burst = %d, want 429", rec.Code)
	}
	ra, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want a positive integer", rec.Header().Get("Retry-After"))
	}
	if c := svc.Counters(); c.RateLimited != 1 {
		t.Errorf("RateLimited counter = %d, want 1", c.RateLimited)
	}

	// Probes are exempt even with the bucket dry.
	for _, target := range []string{"/healthz", "/metrics"} {
		if rec := do(t, svc, "GET", target); rec.Code != http.StatusOK {
			t.Errorf("GET %s with a dry bucket = %d, want 200", target, rec.Code)
		}
	}

	// A second of refill admits exactly one more request.
	mu.Lock()
	now = now.Add(time.Second)
	mu.Unlock()
	if rec := do(t, svc, "GET", "/v1/backends"); rec.Code != http.StatusOK {
		t.Errorf("request after refill = %d, want 200", rec.Code)
	}
	if rec := do(t, svc, "GET", "/v1/backends"); rec.Code != http.StatusTooManyRequests {
		t.Errorf("second request after one-token refill = %d, want 429", rec.Code)
	}
}

// TestPanicAfterBodyStartedAbortsConnection is the regression for silent
// truncation: when a handler panics after the response body started, the
// client must see a broken connection, not a clean EOF on a truncated 200.
func TestPanicAfterBodyStartedAbortsConnection(t *testing.T) {
	svc, _ := newTestService(t, engine.Config{})
	svc.mux.HandleFunc("GET /v1/truncate", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "1000")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("partial"))
		http.NewResponseController(w).Flush()
		panic("mid-body")
	})
	srv := httptest.NewServer(svc)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/truncate")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (headers were already sent)", resp.StatusCode)
	}
	if _, err := io.ReadAll(resp.Body); err == nil {
		t.Error("truncated response read cleanly; the connection was not aborted")
	}

	c := svc.Counters()
	if c.Panics != 1 {
		t.Errorf("Panics = %d, want 1", c.Panics)
	}
	if c.Errors != 1 {
		t.Errorf("Errors = %d, want 1 (the aborted request)", c.Errors)
	}
	// The server survives and keeps serving.
	if code, _ := get(t, svc, "/healthz"); code != http.StatusOK {
		t.Errorf("healthz after mid-body panic = %d", code)
	}
}

// TestBogusFormatIs400 is the regression for the ?format fallthrough: an
// unknown format value must be rejected, not silently degraded to the Accept
// default — and must not cost a characterization run.
func TestBogusFormatIs400(t *testing.T) {
	svc, eng := newTestService(t, engine.Config{})
	for _, target := range []string{
		"/v1/arch/skylake?format=bogus",
		"/v1/arch/skylake/variant/ADD_R64_R64?format=yaml",
	} {
		code, body := get(t, svc, target)
		if code != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400 (%s)", target, code, body)
		}
		if !strings.Contains(string(body), "format") {
			t.Errorf("GET %s error %q does not name the format", target, body)
		}
	}
	if st := eng.Stats(); st.Runs != 0 {
		t.Errorf("rejected formats started %d engine runs", st.Runs)
	}
}

// TestClientGoneIsCounted is the regression for cancellation accounting: a
// request abandoned by its client is recorded as client-gone, not as a server
// error — whether it had coalesced onto a run or started it — and the run
// keeps going for everyone else and lands in the store.
func TestClientGoneIsCounted(t *testing.T) {
	// gated serves a fresh engine whose cold runs hold in blocking discovery
	// until release is called.
	gated := func() (svc *Service, eng *engine.Engine, target string, release func()) {
		released := make(chan struct{})
		var gate, once sync.Once
		svc, eng = newTestService(t, engine.Config{
			CacheDir: t.TempDir(),
			BlockingProgress: func(gen uarch.Generation, done, total int, name string) {
				gate.Do(func() { <-released })
			},
		})
		srv := httptest.NewServer(svc)
		t.Cleanup(srv.Close)
		release = func() { once.Do(func() { close(released) }) }
		t.Cleanup(release) // runs first: srv.Close waits for held handlers
		return svc, eng, srv.URL + "/v1/arch/skylake?only=" + strings.Join(testOnly, ","), release
	}
	waitFor := func(what string, cond func() bool) bool {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return true
			}
			time.Sleep(time.Millisecond)
		}
		t.Errorf("timed out waiting for %s", what)
		return false
	}
	// hangUp starts a request that its client abandons when cancel is called;
	// done yields the client's error.
	hangUp := func(target string) (cancel func(), done chan error) {
		ctx, cancel := context.WithCancel(context.Background())
		done = make(chan error, 1)
		go func() {
			req, _ := http.NewRequestWithContext(ctx, "GET", target, nil)
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
			done <- err
		}()
		return cancel, done
	}
	checkCounters := func(svc *Service) {
		t.Helper()
		c := svc.Counters()
		if c.Errors != 0 {
			t.Errorf("Errors = %d, want 0: a client hang-up is not a server error", c.Errors)
		}
		if c.ClientGone != 1 {
			t.Errorf("ClientGone = %d, want 1", c.ClientGone)
		}
	}

	// A waiter hangs up: the request that started the run holds it, a second
	// client attaches and then goes away.
	svc, eng, target, release := gated()
	leaderDone := make(chan error, 1)
	go func() {
		resp, err := http.Get(target)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("leader status = %d", resp.StatusCode)
			}
		}
		leaderDone <- err
	}()
	if !waitFor("the leader's run to start", func() bool { return eng.Stats().Runs == 1 }) {
		t.FailNow()
	}
	cancel, waiterDone := hangUp(target)
	if !waitFor("the waiter to attach", func() bool { return eng.Stats().CoalescedWaiters >= 1 }) {
		t.FailNow()
	}
	cancel()
	if err := <-waiterDone; err == nil {
		t.Error("cancelled client's request did not error")
	}
	ok := waitFor("the hang-up to be counted", func() bool { return svc.Counters().ClientGone == 1 })
	release()
	if !ok {
		t.FailNow()
	}
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader failed after the waiter hung up: %v", err)
	}
	checkCounters(svc)

	// The request that started the run hangs up: it is detached like any
	// waiter, and the run it started still completes into the store.
	svc, eng, target, release = gated()
	cancel, leaderGone := hangUp(target)
	if !waitFor("the run to start", func() bool { return eng.Stats().Runs == 1 }) {
		t.FailNow()
	}
	cancel()
	if err := <-leaderGone; err == nil {
		t.Error("cancelled leader's request did not error")
	}
	ok = waitFor("the leader's hang-up to be counted", func() bool { return svc.Counters().ClientGone == 1 })
	release()
	if !ok {
		t.FailNow()
	}
	drainCtx, drainCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer drainCancel()
	if err := eng.Drain(drainCtx); err != nil {
		t.Fatalf("the abandoned run did not finish: %v", err)
	}
	resp, err := http.Get(target)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the abandoned run = %d", resp.StatusCode)
	}
	if st := eng.Stats(); st.ResultHits != 1 || st.VariantsMeasured != len(testOnly) {
		t.Errorf("abandoned run did not land in the store: %d result hits, %d variants measured, want 1 and %d",
			st.ResultHits, st.VariantsMeasured, len(testOnly))
	}
	checkCounters(svc)
}

// TestCancelledRunAnswersWaitingClient: when the engine's base context is
// cancelled (the server shutting down) under a request whose client still
// waits, that client gets a 503 with a JSON error, counted as an error: its
// client never left, so it is not ClientGone.
func TestCancelledRunAnswersWaitingClient(t *testing.T) {
	baseCtx, baseCancel := context.WithCancel(context.Background())
	defer baseCancel()
	released := make(chan struct{})
	var gate, once sync.Once
	release := func() { once.Do(func() { close(released) }) }
	defer release()
	svc, eng := newTestService(t, engine.Config{
		BaseContext: baseCtx,
		BlockingProgress: func(gen uarch.Generation, done, total int, name string) {
			gate.Do(func() { <-released })
		},
	})
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		done <- do(t, svc, "GET", "/v1/arch/skylake?only="+strings.Join(testOnly, ","))
	}()
	for deadline := time.Now().Add(30 * time.Second); eng.Stats().Runs != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the run to start")
		}
	}
	baseCancel()
	release()

	var rec *httptest.ResponseRecorder
	select {
	case rec = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("the waiting request was not answered after its run was cancelled")
	}
	var body struct {
		Error string `json:"error"`
	}
	if rec.Code != http.StatusServiceUnavailable || json.Unmarshal(rec.Body.Bytes(), &body) != nil || body.Error == "" {
		t.Errorf("cancelled run answered %d %q, want 503 with a JSON error", rec.Code, rec.Body)
	}
	if c := svc.Counters(); c.Errors != 1 || c.ClientGone != 0 {
		t.Errorf("counters = %+v, want Errors 1 and ClientGone 0: the client still waited", c)
	}
	drainCtx, drainCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer drainCancel()
	if err := eng.Drain(drainCtx); err != nil {
		t.Fatalf("engine did not quiesce after base cancel: %v", err)
	}
}
