package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"uopsinfo/internal/engine"
	"uopsinfo/internal/service"
	"uopsinfo/internal/uarch"
	"uopsinfo/internal/xmlout"
)

// Serve-open traffic: an open loop at fixedRate for the whole window, over at
// most serveConns connections. The rate is about a third of what 2 CPUs
// serve (~75 rps), so latency measures service time plus moderate queueing;
// at half of it, queueing alone set the median and a slightly slower host
// moved it by a third. A closed loop at full load was tried for the CPU
// time: with both CPUs saturated its normalized CPU time per request spread
// three times as wide between runs as the open loop's.
const (
	serveConns = 2
	fixedRate  = 25.0
)

// serveFixture is a filled durable store behind uopsd's service on a real
// loopback HTTP server.
type serveFixture struct {
	*storeFixture
	srv    *httptest.Server
	client *http.Client
}

func (e *env) startServer() (*serveFixture, error) {
	fx, err := e.fillStore()
	if err != nil {
		return nil, err
	}
	svc, err := service.New(service.Config{Engine: fx.eng})
	if err != nil {
		fx.release()
		return nil, err
	}
	var h http.Handler = svc
	if e.tr != nil {
		h = e.tr.handler("http.request", svc)
	}
	return &serveFixture{
		storeFixture: fx,
		srv:          httptest.NewServer(h),
		client:       &http.Client{Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}},
	}, nil
}

func (fx *serveFixture) release() {
	fx.client.CloseIdleConnections()
	fx.srv.Close()
	fx.storeFixture.release()
}

// path is the request URL path of a serve-open query.
func (q query) path() string {
	gen := "/v1/arch/" + url.PathEscape(storeGen.String())
	if q.class == "variant" {
		return gen + "/variant/" + url.PathEscape(q.names[0])
	}
	v := url.Values{}
	if q.opts.Only != nil {
		v.Set("only", strings.Join(q.names, ","))
	}
	if q.opts.SkipLatency {
		v.Set("quick", "true")
	}
	if q.format == "xml" {
		v.Set("format", "xml")
	}
	if enc := v.Encode(); enc != "" {
		return gen + "?" + enc
	}
	return gen
}

// loadPhase is what the open loop measured.
type loadPhase struct {
	lat     []float64 // due time to body read, seconds, per completed request
	lag     []float64 // due time to send, seconds
	sent    int
	elapsed time.Duration // from the first request's due time to the last response
}

// response is a received response awaiting verification.
type response struct {
	q      query
	status int
	etag   string
	body   []byte
}

// serveRun drives the service. Responses are verified off the senders'
// goroutines, so checking does not hold a connection idle.
type serveRun struct {
	e       *env
	o       *outcome
	fx      *serveFixture
	stream  *queryStream
	verify  chan response
	pending sync.WaitGroup
	// requests numbers the requests of the run, for their request ids.
	requests atomic.Int64
	// seen maps a verified ETag to its body's hash (verifier goroutine
	// only): equal ETags promise byte-identical bodies, so a repeat is
	// checked by hash instead of parsed again.
	seen map[string][32]byte
}

// runServeOpen measures uopsd's service under open-loop traffic. Every
// response is checked: status 200, ETag equal to the engine's run digest,
// body parses, variant count matches. One operation is one request;
// cpu_ms_per_op includes the client's and the verifier's share.
func runServeOpen(e *env) (*outcome, error) {
	o := newOutcome()
	fx, err := repeatSetup(e, o, e.startServer, (*serveFixture).release)
	if err != nil {
		return nil, err
	}
	defer fx.release()
	var acc accuracy
	acc.add(uarch.Get(storeGen), fx.ref)
	acc.set(o)

	s := &serveRun{e: e, o: o, fx: fx, stream: newQueryStream(e.seed, e.stride),
		// A burst of responses may wait here while the verifier parses a
		// large one; the senders block only past that.
		verify: make(chan response, 64),
		seen:   map[string][32]byte{}}
	go s.verifier()
	defer close(s.verify)

	mark := 0
	var fsBefore fsTotals
	if e.tr != nil {
		mark, fsBefore = e.tr.mark(), e.tr.fs.snapshot()
	}
	statsBefore := fx.eng.Stats()
	cpu0 := e.cpuTime()
	p := s.open(fixedRate, e.window)
	o.cpuPerOp(e.cpuTime()-cpu0, p.sent)
	statsAfter := fx.eng.Stats()
	o.throughput(float64(p.sent), p.elapsed.Seconds(), p.sent)
	o.latency(p.lat)
	e.logf("serve-open: %.0f rps for %v: %d sent, generator lag p90 %.1f ms",
		fixedRate, e.window, p.sent, 1e3*percentile(p.lag, 0.9))

	if e.tr == nil {
		return o, nil
	}
	fsd := e.tr.fs.snapshot().sub(fsBefore)
	engineLayer(o, statsBefore, statsAfter)
	storeLayer(o, fsd)
	o.layer["store.disk_mb"] = diskMB(fx.dir)
	serviceLayer(o, e.tr.since(mark), p, fsd)
	if err := e.quickReplay(o, fx.eng); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	return o, nil
}

// open sends rate requests per second for dur, request i being due at
// i/rate; every scheduled request is sent, however late.
func (s *serveRun) open(rate float64, dur time.Duration) loadPhase {
	n := int(math.Round(rate * dur.Seconds()))
	var p loadPhase
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	claim := func() (int, query, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= n {
			return 0, query{}, false
		}
		next++
		return next - 1, s.stream.next(), true
	}
	start := time.Now()
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, q, ok := claim()
				if !ok {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				time.Sleep(time.Until(due))
				sent := time.Now()
				s.do(q)
				done := time.Now()
				mu.Lock()
				p.sent++
				p.lat = append(p.lat, done.Sub(due).Seconds())
				p.lag = append(p.lag, sent.Sub(due).Seconds())
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	s.pending.Wait()
	return p
}

// do sends one request and reads its body; the verifier checks it.
func (s *serveRun) do(q query) {
	req, err := http.NewRequest(http.MethodGet, s.fx.srv.URL+q.path(), nil)
	if err != nil {
		s.o.check(false, "%s: %v", q.class, err)
		return
	}
	id := strconv.FormatInt(s.requests.Add(1), 10)
	req.Header.Set(reqHeader, id)
	var spanID int64
	if tr := s.e.tr; tr != nil {
		spanID = tr.newID()
		req.Header.Set(spanHeader, strconv.FormatInt(spanID, 10))
	}
	start := time.Now()
	resp, err := s.fx.client.Do(req)
	if err != nil {
		s.o.check(false, "%s: %v", q.class, err)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if tr := s.e.tr; tr != nil {
		tr.record(span{ID: spanID, Name: "client.request", Attr: q.class, Req: id,
			Start: tr.at(start), End: tr.at(time.Now())})
	}
	if err != nil {
		s.o.check(false, "%s: reading body: %v", q.class, err)
		return
	}
	s.pending.Add(1)
	s.verify <- response{q: q, status: resp.StatusCode, etag: resp.Header.Get("ETag"), body: body}
}

func (s *serveRun) verifier() {
	for r := range s.verify {
		if ok, why := s.check(r); ok {
			s.o.check(true, "")
		} else {
			s.o.check(false, "%s %s: %s", r.q.class, r.q.path(), why)
		}
		s.pending.Done()
	}
}

// check verifies one response.
func (s *serveRun) check(r response) (bool, string) {
	if r.status != http.StatusOK {
		return false, fmt.Sprintf("status %d", r.status)
	}
	opts := r.q.opts
	if opts.Only != nil {
		opts.Only = r.q.names // uopsd sorts ?only
	}
	dig, err := s.fx.eng.RunDigest(storeGen, opts)
	if err != nil {
		return false, err.Error()
	}
	want := `"` + dig.String() + "-" + r.q.format + `"`
	if r.etag != want {
		return false, fmt.Sprintf("ETag %s, want %s", r.etag, want)
	}
	sum := sha256.Sum256(r.body)
	if prev, ok := s.seen[want]; ok {
		return prev == sum, "body differs from an earlier one with the same ETag"
	}
	var doc xmlout.Document
	if r.q.format == "xml" {
		d, err := xmlout.Read(bytes.NewReader(r.body))
		if err != nil {
			return false, err.Error()
		}
		doc = *d
	} else if err := json.Unmarshal(r.body, &doc); err != nil {
		return false, err.Error()
	}
	name := storeGen.String()
	if len(doc.Architectures) != 1 || doc.Architectures[0].Name != name ||
		len(doc.Architectures[0].Instructions) != len(r.q.names) {
		return false, fmt.Sprintf("body does not hold the %d %s variants asked for", len(r.q.names), name)
	}
	s.seen[want] = sum
	return true, ""
}

// replayQuickOps is how many of the stream's first quick queries a traced
// run replays serially.
const replayQuickOps = 16

// quickReplay replays the first replayQuickOps quick queries of the seeded
// stream on the engine's blocking set and checks them against a reference:
// the same variants characterized with SkipLatency on a plain engine without
// a store. The set-up records cannot serve as the reference: they were
// measured with latencies, which feed the port-usage search.
func (e *env) quickReplay(o *outcome, eng *engine.Engine) error {
	names := quickNames(newQueryStream(e.seed, e.stride), replayQuickOps)
	c, err := eng.Characterizer(storeGen)
	if err != nil {
		return err
	}
	bs, err := c.Blocking()
	if err != nil {
		return err
	}
	replayed, _, err := e.replay(o, replaySpec{backend: tracedLocal, sim: &localRuns, skipLatency: true,
		gens: []replayGen{{gen: storeGen, names: names, blocking: bs}}})
	if err != nil {
		return err
	}
	plain, err := engine.New(engine.Config{Workers: engineWorkers})
	if err != nil {
		return err
	}
	ref, err := plain.CharacterizeArch(storeGen, engine.RunOptions{Only: names, SkipLatency: true})
	if err != nil {
		return err
	}
	ok, why := sameRecords(replayed[storeGen], names, ref)
	o.check(ok, "replayed quick queries: %s", why)
	return nil
}

// serviceLayer sets the service-layer metrics of the open loop.
func serviceLayer(o *outcome, spans []span, p loadPhase, fsd fsTotals) {
	handler := map[string][]float64{}
	byParent := map[int64]span{}
	var handlerNS, bytesOut int64
	for _, s := range spans {
		if s.Name == "http.request" {
			handler[s.Attr] = append(handler[s.Attr], float64(s.dur())/1e6)
			byParent[s.Parent] = s
			handlerNS += s.End - s.Start
			bytesOut += s.RespBytes
		}
	}
	var transport []float64
	for _, c := range spans {
		if srv, ok := byParent[c.ID]; ok && c.Name == "client.request" {
			transport = append(transport, float64(c.dur()-srv.dur())/1e6)
		}
	}
	for _, c := range servedClasses {
		o.layer["service."+c+".handler_p50_ms"] = percentile(handler[c], 0.50)
		o.layer["service."+c+".handler_p99_ms"] = percentile(handler[c], 0.99)
	}
	o.layer["service.transport_p50_ms"] = percentile(transport, 0.50)
	o.layer["service.bytes_out"] = float64(bytesOut)
	o.layer["service.gen_lag_p99_ms"] = 1e3 * percentile(p.lag, 0.99)
	o.layer["service.store_share"] = ratio(float64(fsd.ioNS()), float64(handlerNS))
}
