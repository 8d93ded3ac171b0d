// Package service is the HTTP front end of the characterization engine: a
// long-running server ("uopsd") that owns one engine.Engine (and through it
// the persistent store) and serves characterization results to many
// concurrent callers.
//
// Endpoints:
//
//	GET  /healthz                       liveness probe
//	GET  /metrics                       Prometheus-style counter exposition
//	GET  /v1/backends                   the measurement-backend registry
//	GET  /v1/stats                      engine cache/coalescing counters + service counters
//	GET  /v1/arch/{gen}                 full characterization of one generation
//	GET  /v1/arch/{gen}/variant/{name}  characterization of a single variant
//
// The characterization endpoints accept ?format=xml or ?format=json (default
// JSON; an Accept header naming xml also selects it; any other ?format value
// is a 400), and /v1/arch/{gen} additionally accepts ?only=NAME,NAME and
// ?quick=1 (skip the per-operand-pair latency measurements). Generation names
// are matched case-insensitively with separators ignored, so
// /v1/arch/sandy-bridge works. Every request is synchronous: a cold
// full-generation request completes in seconds.
//
// Concurrent identical queries are coalesced by the engine singleflight-style
// on the store digest of the request: N simultaneous cold requests for one
// generation trigger exactly one measurement run, every waiter receives the
// same result (rendered to byte-identical bodies), and the run lands in the
// store so later requests are warm hits. A request whose client hangs up
// stops waiting, while the run completes for the others and the store. The
// same digest doubles as the ETag of result responses, so a warm conditional
// GET (If-None-Match) answers 304 without touching the engine. Equal tags
// mean byte-identical bodies, so the service keeps the bytes of every
// successful whole-generation response (no ?only) by its ETag and writes a
// repeat from them, again without touching the engine; ?only and variant
// responses are rendered per request. /v1/stats exposes the run/waiter
// counters and the repeats written from kept bytes (renderHits).
//
// Errors on request-derived input degrade to HTTP statuses, never crash the
// process: an unknown generation is 400, an unknown variant 404, and a
// handler panic is caught, counted and answered with 500 — unless the
// response body was already underway, in which case the connection is torn
// down (http.ErrAbortHandler) rather than delivering a truncated 2xx.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"uopsinfo/internal/engine"
	"uopsinfo/internal/iaca"
	"uopsinfo/internal/measure"
	"uopsinfo/internal/measure/remote"
	"uopsinfo/internal/store"
	"uopsinfo/internal/uarch"
	"uopsinfo/internal/xmlout"
)

// StatusClientGone is the status recorded for requests whose client went away
// before a response could be written (nginx's 499 convention). It is
// accounting, not wire protocol: by the time it is recorded nobody is reading
// the response, but the status writer picks it up so cancelled requests are
// counted as Counters.ClientGone instead of masquerading as successes.
const StatusClientGone = 499

// Config configures a Service.
type Config struct {
	// Engine is the characterization engine the service serves from.
	// Required; the engine's store configuration decides whether results
	// persist across requests and restarts.
	Engine *engine.Engine
	// Log, if non-nil, receives request-failure and panic diagnostics.
	Log func(format string, args ...interface{})
	// RateLimit, if positive, enables the token-bucket rate limiter:
	// requests per second sustained across all endpoints except /healthz and
	// /metrics (probes and scrapes must keep working while the service
	// sheds load). Requests beyond the budget are answered 429 with a
	// Retry-After header. Zero or negative disables limiting.
	RateLimit float64
	// RateBurst is the bucket depth of the rate limiter: how many requests
	// may arrive back-to-back before the sustained rate applies. <= 0
	// selects max(1, ceil(RateLimit)).
	RateBurst int
}

// Counters are the service-level request counters, exposed (with the engine
// stats) by /v1/stats and, by their metric tags, /metrics.
type Counters struct {
	// Requests counts every HTTP request received.
	Requests int `json:"requests" metric:"uopsd_http_requests_total" help:"HTTP requests received."`
	// Errors counts requests answered with a 4xx or 5xx status (including
	// rate-limited ones, but not client-cancelled ones).
	Errors int `json:"errors" metric:"uopsd_http_errors_total" help:"HTTP requests answered with a 4xx or 5xx status."`
	// Panics counts handler panics that were caught and converted to 500s
	// (or connection aborts, when the body was already underway). Anything
	// non-zero here is a bug worth a report.
	Panics int `json:"panics" metric:"uopsd_http_panics_total" help:"Handler panics caught and contained."`
	// ClientGone counts requests whose client went away (cancelled the
	// request, closed the connection) before a response was written. They
	// are neither successes nor server errors; without this counter they
	// were invisible.
	ClientGone int `json:"clientGone" metric:"uopsd_http_client_gone_total" help:"Requests whose client went away before a response was written."`
	// RateLimited counts requests rejected with 429 by the rate limiter.
	RateLimited int `json:"rateLimited" metric:"uopsd_http_rate_limited_total" help:"Requests rejected with 429 by the rate limiter."`
	// MeasureBatches and MeasureSeqs count the fleet-worker measurement
	// requests (POST /v1/measure) served and the copy counts they carried,
	// one reading each; MeasureSeqErrors counts the copy counts of the
	// requests whose kernel could not be measured (reported inside a 200
	// response).
	MeasureBatches   int `json:"measureBatches" metric:"uopsd_measure_batches_total" help:"Fleet-worker measurement batches served by POST /v1/measure."`
	MeasureSeqs      int `json:"measureSeqs" metric:"uopsd_measure_sequences_total" help:"Sequences measured inside /v1/measure batches."`
	MeasureSeqErrors int `json:"measureSeqErrors" metric:"uopsd_measure_sequence_errors_total" help:"Sequences inside /v1/measure batches that failed."`
	// RenderHits counts whole-generation responses written from the bytes
	// kept for their ETag. Like 304s, they never reach the engine, so its
	// run and hit counters do not see them.
	RenderHits int `json:"renderHits" metric:"uopsd_http_render_hits_total" help:"Whole-generation responses written from the bytes kept for their ETag."`
}

// Service is the HTTP handler of the characterization service. It is safe
// for concurrent use by any number of requests.
type Service struct {
	eng     *engine.Engine
	log     func(format string, args ...interface{})
	mux     *http.ServeMux
	limiter *rateLimiter

	// serving is the engine's serving-backend identity, which /v1/backends
	// reports, and fingerprint the part of it every /v1/measure response
	// echoes. Both are fixed for the engine's lifetime, so New computes
	// them once.
	serving     remote.ServingInfo
	fingerprint string

	mu       sync.Mutex
	counters Counters

	// iacaMu guards iacaCache, the per-generation IACA analyzers. Building
	// an analyzer walks the generation's full instruction set, so it happens
	// once per generation, not once per request; after New an analyzer is
	// read-only (the service only uses Entry) and safe to share.
	iacaMu    sync.Mutex
	iacaCache map[uarch.Generation]*iacaEntry

	// bodiesMu guards bodies, the bytes of every successful whole-generation
	// response by ETag. The ISA bounds it: an engine's backend is fixed, so
	// each generation has two whole-generation digests (with and without
	// ?quick) in two formats, 36 bodies in all.
	bodiesMu sync.Mutex
	bodies   map[string][]byte
}

// iacaEntry builds one generation's analyzers exactly once, like the
// engine's charEntry.
type iacaEntry struct {
	once      sync.Once
	analyzers []*iaca.Analyzer
	err       error
}

// New returns a service over the configured engine.
func New(cfg Config) (*Service, error) {
	if cfg.Engine == nil {
		return nil, errors.New("service: Config.Engine is required")
	}
	s := &Service{
		eng:       cfg.Engine,
		log:       cfg.Log,
		mux:       http.NewServeMux(),
		serving:   servingInfo(cfg.Engine),
		iacaCache: make(map[uarch.Generation]*iacaEntry),
		bodies:    make(map[string][]byte),
	}
	s.fingerprint = fingerprintOf(s.serving)
	if cfg.RateLimit > 0 {
		s.limiter = newRateLimiter(cfg.RateLimit, cfg.RateBurst)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/backends", s.handleBackends)
	s.mux.HandleFunc("POST /v1/measure", s.handleMeasure)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/arch/{gen}", s.handleArch)
	s.mux.HandleFunc("GET /v1/arch/{gen}/variant/{name}", s.handleVariant)
	return s, nil
}

func (s *Service) logf(format string, args ...interface{}) {
	if s.log != nil {
		s.log(format, args...)
	}
}

// Counters returns a snapshot of the service-level request counters.
func (s *Service) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters
}

func (s *Service) count(f func(*Counters)) {
	s.mu.Lock()
	f(&s.counters)
	s.mu.Unlock()
}

// statusWriter records the status code a handler wrote, for the error,
// client-gone and panic accounting in ServeHTTP. StatusClientGone is only
// recorded, never forwarded: nobody is reading that response.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	if status == StatusClientGone {
		return
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// Unwrap exposes the underlying writer to http.ResponseController, so
// handlers can flush through the wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// rateExempt reports whether a path bypasses the rate limiter: liveness
// probes and metrics scrapes must keep answering exactly when the service is
// shedding load.
func rateExempt(path string) bool {
	return path == "/healthz" || path == "/metrics"
}

// ServeHTTP dispatches to the endpoint handlers, counting requests, errors
// and cancelled clients, and applying the rate limiter when one is
// configured. A panicking handler — which would otherwise take down every
// connection of the server — is caught, counted and logged; if no response
// was started it is converted into a 500, but once the status or body is on
// the wire a 500 can no longer be delivered, so the panic is re-raised as
// http.ErrAbortHandler and the connection is torn down instead of ending a
// 2xx response early and lying to the client.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.count(func(c *Counters) { c.Requests++ })
	sw := &statusWriter{ResponseWriter: w}
	defer func() {
		if p := recover(); p != nil {
			abort := p == http.ErrAbortHandler || sw.status != 0
			s.count(func(c *Counters) {
				c.Panics++
				if abort {
					c.Errors++
				}
			})
			s.logf("service: panic serving %s %s: %v", r.Method, r.URL.Path, p)
			if abort {
				panic(http.ErrAbortHandler)
			}
			http.Error(sw, "internal error", http.StatusInternalServerError)
		}
		switch {
		case sw.status == StatusClientGone:
			s.count(func(c *Counters) { c.ClientGone++ })
		case sw.status >= 400:
			s.count(func(c *Counters) { c.Errors++ })
		}
	}()
	if s.limiter != nil && !rateExempt(r.URL.Path) {
		if ok, retry := s.limiter.allow(); !ok {
			s.count(func(c *Counters) { c.RateLimited++ })
			sw.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(retry)))
			s.fail(sw, http.StatusTooManyRequests, errors.New("service: rate limit exceeded"))
			return
		}
	}
	s.mux.ServeHTTP(sw, r)
}

// fail answers a request with a JSON error body.
func (s *Service) fail(w http.ResponseWriter, status int, err error) {
	s.logf("service: %d: %v", status, err)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// writeJSON answers with an indented JSON body. Encoding is deterministic
// (struct-order fields, sorted results), so coalesced waiters rendering the
// same result produce byte-identical bodies.
func (s *Service) writeJSON(w http.ResponseWriter, v interface{}) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		s.fail(w, http.StatusInternalServerError, fmt.Errorf("service: encoding response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Write(append(data, '\n'))
}

// Representation formats of result documents.
const (
	formatJSON = "json"
	formatXML  = "xml"
)

// requestFormat resolves the representation format of a request: an explicit
// ?format=json|xml wins, any other ?format value is the caller's error (it
// must be answered 400, not silently guessed over), and without the
// parameter the Accept header decides via wantXML.
func requestFormat(r *http.Request) (string, error) {
	switch f := r.URL.Query().Get("format"); f {
	case formatJSON, formatXML:
		return f, nil
	case "":
	default:
		return "", fmt.Errorf("service: unknown format %q (supported: json, xml)", f)
	}
	if wantXML(r) {
		return formatXML, nil
	}
	return formatJSON, nil
}

// wantXML reports whether the request's Accept header asks for the XML
// rendering: its first recognized media type is an XML type. JSON is the
// default: a browser's Accept header (text/html first, application/xml
// further down) or a catch-all must not flip the format, so the header is
// matched on whole media-type tokens in listed order, not by substring.
func wantXML(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		mediaType, _, _ := strings.Cut(strings.TrimSpace(part), ";")
		switch strings.TrimSpace(mediaType) {
		case "application/xml", "text/xml":
			return true
		case "application/json", "text/html", "*/*":
			return false
		}
	}
	return false
}

// render renders a characterization response to its body: indented JSON as
// writeJSON writes it, or exactly the results-file XML of cmd/uopsinfo.
func render(format string, doc *xmlout.Document) ([]byte, error) {
	if format == formatXML {
		var buf bytes.Buffer
		if err := xmlout.Write(&buf, doc); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("service: encoding response: %w", err)
	}
	return append(data, '\n'), nil
}

// writeBody answers with a rendered characterization response.
func writeBody(w http.ResponseWriter, tag, format string, body []byte) {
	ctype := "application/json; charset=utf-8"
	if format == formatXML {
		ctype = "application/xml; charset=utf-8"
	}
	w.Header().Set("ETag", tag)
	w.Header().Set("Content-Type", ctype)
	w.Write(body)
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// A degraded store does not fail the liveness probe — the service still
	// serves every request, re-measuring instead of caching — but the probe
	// says so: "degraded" plus the store's mode ("read-only" when saves are
	// suppressed, "compute-only" when loads are too).
	if mode := s.eng.StoreMode(); mode != "" && mode != store.ModeOK {
		s.writeJSON(w, map[string]string{"status": "degraded", "store": mode})
		return
	}
	s.writeJSON(w, map[string]string{"status": "ok"})
}

// BackendInfo is one entry of the /v1/backends response. Fingerprint is the
// name@version token folded into persistent cache keys for results measured
// on that backend.
type BackendInfo struct {
	Name        string `json:"name"`
	Version     string `json:"version"`
	Fingerprint string `json:"fingerprint"`
	Default     bool   `json:"default"`
}

// backendInfo assembles one registry entry.
func backendInfo(b measure.Backend) BackendInfo {
	return BackendInfo{
		Name:        b.Name(),
		Version:     b.Version(),
		Fingerprint: measure.Fingerprint(b),
		Default:     b.Name() == measure.DefaultBackend,
	}
}

// handleBackends lists the compiled-in backend registry plus a "serving"
// section identifying the backend this service's engine actually measures on
// — the part a fleet client's handshake consumes to verify that every worker
// serves the same substrate under the same measurement configuration.
func (s *Service) handleBackends(w http.ResponseWriter, r *http.Request) {
	names := measure.Names()
	infos := make([]BackendInfo, 0, len(names))
	for _, name := range names {
		b, ok := measure.Lookup(name)
		if !ok {
			continue
		}
		infos = append(infos, backendInfo(b))
	}
	s.writeJSON(w, struct {
		Backends []BackendInfo      `json:"backends"`
		Serving  remote.ServingInfo `json:"serving"`
	}{infos, s.serving})
}

// StatsResponse is the /v1/stats response: what the engine is serving from
// (backend), how its caches and the request coalescing behave (engine), and
// the service-level request counters (service).
type StatsResponse struct {
	Backend BackendInfo  `json:"backend"`
	Engine  engine.Stats `json:"engine"`
	Service Counters     `json:"service"`
}

// stats assembles the /v1/stats response, which /metrics also renders.
func (s *Service) stats() StatsResponse {
	return StatsResponse{
		Backend: backendInfo(s.eng.Backend()),
		Engine:  s.eng.Stats(),
		Service: s.Counters(),
	}
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, s.stats())
}

// archFromRequest resolves the {gen} path segment, answering 400 for an
// unknown generation name (the error body lists the known ones).
func (s *Service) archFromRequest(w http.ResponseWriter, r *http.Request) (*uarch.Arch, bool) {
	arch, err := uarch.ByName(r.PathValue("gen"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return nil, false
	}
	return arch, true
}

// etag derives the entity tag of a characterization response from the run's
// store digest and the representation format. The digest is the engine's
// coalescing key — it covers the generation, backend fingerprint, measurement
// protocol, variant universe and run options — and characterization is
// deterministic, so equal tags imply byte-identical bodies.
func etag(dig store.Digest, format string) string {
	return `"` + dig.String() + "-" + format + `"`
}

// etagMatches implements the If-None-Match comparison: a list of entity tags
// (or "*") matched against the response's tag. Weak-validator prefixes are
// accepted — our tags are strong, so W/"x" matching "x" is still exact.
func etagMatches(header, tag string) bool {
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		cand = strings.TrimPrefix(cand, "W/")
		if cand == "*" || cand == tag {
			return true
		}
	}
	return false
}

// clientGone records a request whose caller went away before a response was
// written: the 499-style status makes it count as ClientGone, not as a
// silent success.
func (s *Service) clientGone(w http.ResponseWriter, r *http.Request, err error) {
	s.logf("service: %s %s: client went away: %v", r.Method, r.URL.Path, err)
	w.WriteHeader(StatusClientGone)
}

// characterize runs one request through the engine (coalescing with any
// identical in-flight request) and handles the error surface: a request
// whose client went away is recorded as ClientGone, a run cancelled under a
// client that still waits (the engine shutting down) is a 503, anything
// else is a 500. The run digest is the response's ETag, checked against
// If-None-Match first — a repeat conditional GET is answered 304 without
// touching the engine at all, and so is the repeat of a whole-generation
// response, from the bytes kept for its tag. Only a successful render is
// kept. ?only and variant responses are rendered per request: each
// selection has a digest of its own, so keeping them would need eviction.
// The response carries the per-version IACA entries exactly like the CLI's
// results file, so the XML rendering is byte-identical to what cmd/uopsinfo
// writes for the same query.
func (s *Service) characterize(w http.ResponseWriter, r *http.Request, arch *uarch.Arch, opts engine.RunOptions, format string) {
	dig, err := s.eng.RunDigest(arch.Gen(), opts)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	tag := etag(dig, format)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, tag) {
		w.Header().Set("ETag", tag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	whole := len(opts.Only) == 0
	if whole {
		s.bodiesMu.Lock()
		body, ok := s.bodies[tag]
		s.bodiesMu.Unlock()
		if ok {
			s.count(func(c *Counters) { c.RenderHits++ })
			writeBody(w, tag, format, body)
			return
		}
	}
	res, err := s.eng.CharacterizeArchContext(r.Context(), arch.Gen(), opts)
	if err != nil {
		switch {
		case r.Context().Err() != nil:
			s.clientGone(w, r, err)
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			s.fail(w, http.StatusServiceUnavailable, err)
		default:
			s.fail(w, http.StatusInternalServerError, err)
		}
		return
	}
	analyzers, err := s.analyzers(arch)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	body, err := render(format, xmlout.Single(xmlout.FromArchResult(res, analyzers)))
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	if whole {
		s.bodiesMu.Lock()
		s.bodies[tag] = body
		s.bodiesMu.Unlock()
	}
	writeBody(w, tag, format, body)
}

// analyzers returns the (lazily built, cached) IACA analyzers for a
// generation.
func (s *Service) analyzers(arch *uarch.Arch) ([]*iaca.Analyzer, error) {
	s.iacaMu.Lock()
	ent, ok := s.iacaCache[arch.Gen()]
	if !ok {
		ent = &iacaEntry{}
		s.iacaCache[arch.Gen()] = ent
	}
	s.iacaMu.Unlock()
	ent.once.Do(func() {
		for _, v := range iaca.SupportedVersions(arch.Gen()) {
			a, err := iaca.New(v, arch)
			if err != nil {
				ent.analyzers, ent.err = nil, err
				return
			}
			ent.analyzers = append(ent.analyzers, a)
		}
	})
	return ent.analyzers, ent.err
}

// runOptionsFromRequest parses the query surface of the arch endpoint:
// ?quick and ?only. The selection is canonicalized (resolved, sorted,
// deduplicated), which makes equivalent requests identical to the engine: ?only=A,B and ?only=B,A share
// one coalescing flight and one store entry, and a duplicated name is not
// measured twice. The response is order-independent anyway (results are
// rendered in sorted variant order).
func runOptionsFromRequest(arch *uarch.Arch, r *http.Request) (engine.RunOptions, error) {
	opts := engine.RunOptions{}
	if q := r.URL.Query().Get("quick"); q != "" {
		v, err := strconv.ParseBool(q)
		if err != nil {
			return opts, fmt.Errorf("service: quick=%q is not a boolean", q)
		}
		opts.SkipLatency = v
	}
	if only := r.URL.Query().Get("only"); only != "" {
		set := arch.InstrSet()
		seen := make(map[string]bool)
		for _, name := range strings.Split(only, ",") {
			// Resolving here keeps the engine's error surface out of the
			// status mapping: a mistyped ?only name is the caller's fault.
			in := set.Lookup(name)
			if in == nil {
				return opts, fmt.Errorf("service: %s has no instruction variant %q", arch.Name(), name)
			}
			if seen[in.Name] {
				continue
			}
			seen[in.Name] = true
			opts.Only = append(opts.Only, in.Name)
		}
		sort.Strings(opts.Only)
	}
	return opts, nil
}

func (s *Service) handleArch(w http.ResponseWriter, r *http.Request) {
	arch, ok := s.archFromRequest(w, r)
	if !ok {
		return
	}
	format, err := requestFormat(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	opts, err := runOptionsFromRequest(arch, r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	s.characterize(w, r, arch, opts, format)
}

func (s *Service) handleVariant(w http.ResponseWriter, r *http.Request) {
	arch, ok := s.archFromRequest(w, r)
	if !ok {
		return
	}
	format, err := requestFormat(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	name := r.PathValue("name")
	in := arch.InstrSet().Lookup(name)
	if in == nil {
		s.fail(w, http.StatusNotFound,
			fmt.Errorf("service: %s has no instruction variant %q", arch.Name(), name))
		return
	}
	s.characterize(w, r, arch, engine.RunOptions{Only: []string{in.Name}}, format)
}
