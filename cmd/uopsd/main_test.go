package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"uopsinfo/internal/measure/remote"
	"uopsinfo/internal/service"
)

// startServer runs the real uopsd server on an ephemeral port and returns
// its base URL plus a shutdown function that waits for a clean exit.
func startServer(t *testing.T, args ...string) (string, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	addrc := make(chan string, 1)
	done := make(chan error, 1)
	logger := log.New(io.Discard, "", 0)
	var stdout bytes.Buffer
	go func() {
		done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...),
			&stdout, logger, func(addr string) { addrc <- addr })
	}()
	select {
	case addr := <-addrc:
		return "http://" + addr, func() {
			cancel()
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("server exit: %v", err)
				}
			case <-time.After(30 * time.Second):
				t.Error("server did not shut down")
			}
			if !strings.Contains(stdout.String(), "listening on http://") {
				t.Errorf("startup banner missing from stdout: %q", stdout.String())
			}
		}
	case err := <-done:
		cancel()
		t.Fatalf("server exited before binding: %v", err)
		return "", nil
	}
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestUopsdCoalescingStorm drives the acceptance scenario end to end through
// the real server: with a cold cache, a storm of concurrent identical
// requests performs exactly one measurement run (verified via /v1/stats),
// every response is byte-identical, and bad input yields 4xx without
// terminating the process.
func TestUopsdCoalescingStorm(t *testing.T) {
	base, shutdown := startServer(t, "-cache", t.TempDir(), "-j", "2")
	defer shutdown()

	if code, _ := getBody(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}

	// The storm: K identical cold requests, in flight together (the cold
	// run is dominated by blocking discovery, so the later requests attach
	// while the first is still measuring; the stats assertions below hold
	// even if some request misses the flight and becomes a warm store hit).
	const storm = 6
	target := base + "/v1/arch/skylake?only=ADD_R64_R64,PXOR_XMM_XMM"
	codes := make([]int, storm)
	bodies := make([][]byte, storm)
	var wg sync.WaitGroup
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(target)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i := range bodies {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d body differs from request 0", i)
		}
	}

	code, statsBody := getBody(t, base+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	var stats service.StatsResponse
	if err := json.Unmarshal(statsBody, &stats); err != nil {
		t.Fatal(err)
	}
	// Exactly one measurement run served the whole storm: only the two
	// requested variants were ever measured, and every request either led a
	// run (warm ones are store hits, not re-measurements) or coalesced onto
	// one.
	if stats.Engine.VariantsMeasured != 2 {
		t.Errorf("storm measured %d variants, want exactly 2 (stats: %s)",
			stats.Engine.VariantsMeasured, statsBody)
	}
	if got := stats.Engine.Runs + stats.Engine.CoalescedWaiters; got != storm {
		t.Errorf("runs+coalesced = %d, want %d (stats: %s)", got, storm, statsBody)
	}
	if stats.Engine.Runs > 1 && stats.Engine.ResultHits != stats.Engine.Runs-1 {
		t.Errorf("%d uncoalesced runs but %d store hits (stats: %s)",
			stats.Engine.Runs, stats.Engine.ResultHits, statsBody)
	}

	// Bad input: 4xx, and the daemon keeps serving.
	if code, _ := getBody(t, base+"/v1/arch/z80"); code != http.StatusBadRequest {
		t.Errorf("unknown generation = %d, want 400", code)
	}
	if code, _ := getBody(t, base+"/v1/arch/skylake/variant/NOPE"); code != http.StatusNotFound {
		t.Errorf("unknown variant = %d, want 404", code)
	}
	if code, _ := getBody(t, base+"/healthz"); code != http.StatusOK {
		t.Errorf("server stopped serving after bad requests: healthz = %d", code)
	}
}

// TestUopsdServingEndToEnd checks the serving table stakes through the real
// server: a warm response's validator turns a conditional GET into a 304, and
// /metrics is served.
func TestUopsdServingEndToEnd(t *testing.T) {
	base, shutdown := startServer(t, "-cache", t.TempDir(), "-j", "2")
	defer shutdown()
	target := base + "/v1/arch/skylake?only=ADD_R64_R64,PXOR_XMM_XMM"

	resp, err := http.Get(target)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	tag := resp.Header.Get("ETag")
	if resp.StatusCode != http.StatusOK || tag == "" {
		t.Fatalf("GET = %d with ETag %q, want 200 with a validator", resp.StatusCode, tag)
	}
	req, _ := http.NewRequest("GET", target, nil)
	req.Header.Set("If-None-Match", tag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("If-None-Match = %d, want 304", resp.StatusCode)
	}

	code, metrics := getBody(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	for _, want := range []string{
		"# HELP uopsd_http_requests_total",
		"uopsd_engine_variants_measured_total 2", // one measured run served everything above
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics exposition lacks %q; full exposition:\n%s", want, metrics)
		}
	}
}

// TestUopsdRateLimitFlags checks -rate/-burst end to end: past the burst the
// server answers 429 with a Retry-After while probe endpoints stay open.
func TestUopsdRateLimitFlags(t *testing.T) {
	// A refill rate this low cannot hand out a second token during the test,
	// so exactly one request is admitted.
	base, shutdown := startServer(t, "-rate", "0.0001", "-burst", "1")
	defer shutdown()

	if code, body := getBody(t, base+"/v1/backends"); code != http.StatusOK {
		t.Fatalf("request within burst = %d: %s", code, body)
	}
	resp, err := http.Get(base + "/v1/backends")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request past burst = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}
	for i := 0; i < 3; i++ {
		if code, _ := getBody(t, base+"/healthz"); code != http.StatusOK {
			t.Errorf("healthz with a dry bucket = %d, want 200", code)
		}
	}
	if code, _ := getBody(t, base+"/metrics"); code != http.StatusOK {
		t.Errorf("metrics with a dry bucket = %d, want 200", code)
	}
}

// TestUopsdShutdownQuiescesDetachedRun is the shutdown acceptance test: the
// client of a cold full-Skylake request hangs up while the run it started is
// still measuring. The hang-up must be counted, and SIGTERM-style
// cancellation must then cancel the run and exit cleanly: no handler is left
// to outlive the 100ms -drain deadline and fail the shutdown.
func TestUopsdShutdownQuiescesDetachedRun(t *testing.T) {
	base, shutdown := startServer(t, "-j", "2", "-drain", "100ms")
	stats := func() service.StatsResponse {
		code, body := getBody(t, base+"/v1/stats")
		if code != http.StatusOK {
			t.Fatalf("stats = %d", code)
		}
		var st service.StatsResponse
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	waitFor := func(what string, cond func(service.StatsResponse) bool) {
		deadline := time.Now().Add(30 * time.Second)
		for !cond(stats()) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// The full Skylake ISA runs long enough to still be measuring (or
	// discovering) when its client hangs up and shutdown begins.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	clientDone := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(ctx, "GET", base+"/v1/arch/skylake", nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		clientDone <- err
	}()
	waitFor("the run to start", func(st service.StatsResponse) bool { return st.Engine.Runs >= 1 })
	cancel()
	if err := <-clientDone; err == nil {
		t.Error("the abandoned request completed")
	}
	waitFor("the hang-up to be counted", func(st service.StatsResponse) bool { return st.Service.ClientGone >= 1 })

	// shutdown() fails the test if run() errors or takes more than 30s.
	start := time.Now()
	shutdown()
	if took := time.Since(start); took > 15*time.Second {
		t.Errorf("shutdown with a detached run took %v", took)
	}
}

// TestUopsdShutdownAnswersWaitingClient: SIGTERM-style cancellation while
// the client of a cold full-Skylake request is still connected. -drain
// (100ms) runs out with that request in flight; the run is then cancelled,
// the client gets a 503 with a JSON error instead of an empty reply, and
// the server exits cleanly.
func TestUopsdShutdownAnswersWaitingClient(t *testing.T) {
	base, shutdown := startServer(t, "-j", "2", "-drain", "100ms")
	type answer struct {
		code int
		body []byte
		err  error
	}
	answered := make(chan answer, 1)
	go func() {
		resp, err := http.Get(base + "/v1/arch/skylake")
		if err != nil {
			answered <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		answered <- answer{resp.StatusCode, body, err}
	}()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		code, body := getBody(t, base+"/v1/stats")
		var st service.StatsResponse
		if code != http.StatusOK || json.Unmarshal(body, &st) != nil {
			t.Fatalf("stats = %d: %s", code, body)
		}
		if st.Engine.Runs >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the run to start")
		}
	}

	// shutdown() fails the test if run() errors or takes more than 30s.
	start := time.Now()
	shutdown()
	if took := time.Since(start); took > 15*time.Second {
		t.Errorf("shutdown with a waiting client took %v", took)
	}
	a := <-answered
	var body struct {
		Error string `json:"error"`
	}
	if a.err != nil || a.code != http.StatusServiceUnavailable || json.Unmarshal(a.body, &body) != nil || body.Error == "" {
		t.Errorf("waiting client got %d %q (%v), want 503 with a JSON error", a.code, a.body, a.err)
	}
}

// TestUopsdFlagErrors pins the usage surface: a bad flag or an unknown
// backend must fail startup with an error, not serve.
func TestUopsdFlagErrors(t *testing.T) {
	logger := log.New(io.Discard, "", 0)
	var stdout bytes.Buffer
	if err := run(context.Background(), []string{"-nope"}, &stdout, logger, nil); err == nil {
		t.Error("run accepted an unknown flag")
	}
	err := run(context.Background(), []string{"-backend", "warpdrive"}, &stdout, logger, nil)
	if err == nil || !strings.Contains(err.Error(), "warpdrive") {
		t.Errorf("run with unknown backend: %v", err)
	}
}

// TestUopsdFleetFrontTier runs the two-tier deployment end to end: two
// worker uopsd instances on the default backend, one front uopsd with
// -fleet pointing at both. The front tier's XML must be byte-identical to a
// worker's own rendering of the same query, its /v1/backends must identify
// the remote serving backend, and its /v1/stats must carry fleet counters.
func TestUopsdFleetFrontTier(t *testing.T) {
	w1, stop1 := startServer(t)
	defer stop1()
	w2, stop2 := startServer(t)
	defer stop2()
	defer remote.Shutdown()
	front, stopFront := startServer(t, "-fleet", w1+","+w2)
	defer stopFront()

	const query = "/v1/arch/skylake?only=ADD_R64_R64,IMUL_R64_R64,DIV_R64&format=xml"
	code, want := getBody(t, w1+query)
	if code != http.StatusOK {
		t.Fatalf("worker GET %s = %d: %s", query, code, want)
	}
	code, got := getBody(t, front+query)
	if code != http.StatusOK {
		t.Fatalf("front GET %s = %d: %s", query, code, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("front-tier XML differs from worker XML (%d vs %d bytes)", len(got), len(want))
	}

	code, body := getBody(t, front+"/v1/backends")
	if code != http.StatusOK {
		t.Fatalf("front GET /v1/backends = %d", code)
	}
	var backends struct {
		Serving service.ServingInfo `json:"serving"`
	}
	if err := json.Unmarshal(body, &backends); err != nil {
		t.Fatal(err)
	}
	if backends.Serving.Name != "remote" || !strings.Contains(backends.Serving.Fingerprint, "fleet(") {
		t.Errorf("front serving identity = %+v, want the remote backend", backends.Serving)
	}

	code, body = getBody(t, front+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("front GET /v1/stats = %d", code)
	}
	if !strings.Contains(string(body), `"fleet"`) {
		t.Errorf("front /v1/stats lacks fleet counters:\n%s", body)
	}
}
