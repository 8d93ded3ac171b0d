package main

// Tracing through the program's public seams only: a measurement backend
// registered with measure.Register that wraps the real runner, a timing
// storefs.FS handed to the store, http.Handler middleware around each
// service, and an http.RoundTripper in the fleet client. No program package
// is edited. Spans stay in memory and are written when the run ends; Run
// calls are far too many to record one span each, so they are aggregated as
// counts and busy time.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/measure"
	"uopsinfo/internal/pipesim"
	"uopsinfo/internal/store/storefs"
	"uopsinfo/internal/uarch"
)

// Names of the tracing backends. Untraced runs use the program's own
// "pipesim" and "remote" backends directly.
const (
	tracedLocal  = "uopsbench-pipesim" // pipesim, for local engines and replays
	tracedRemote = "uopsbench-remote"  // the fleet client of the front engine
	tracedWorker = "uopsbench-worker"  // pipesim inside the fleet's workers
)

// Run counters of the three tracing backends. They only ever grow; a
// measurement takes the difference of two snapshots.
var localRuns, remoteRuns, workerRuns runCounter

func init() {
	measure.Register(&tracedBackend{name: tracedLocal, inner: measure.DefaultBackend, runs: &localRuns})
	measure.Register(&tracedBackend{name: tracedRemote, inner: "remote", runs: &remoteRuns})
	measure.Register(&tracedBackend{name: tracedWorker, inner: measure.DefaultBackend, runs: &workerRuns})
}

// runCounter aggregates Run calls: how many, how long, and the simulated
// cycles and issued µops they reported.
type runCounter struct {
	calls, busyNS, cycles, uops atomic.Int64
}

type runTotals struct{ calls, busyNS, cycles, uops int64 }

func (c *runCounter) snapshot() runTotals {
	return runTotals{c.calls.Load(), c.busyNS.Load(), c.cycles.Load(), c.uops.Load()}
}

func (a runTotals) sub(b runTotals) runTotals {
	return runTotals{a.calls - b.calls, a.busyNS - b.busyNS, a.cycles - b.cycles, a.uops - b.uops}
}

// tracedBackend wraps a registered backend, counting its runners' Run calls.
// It forwards the optional interfaces the engine consults, so an engine on
// it behaves exactly like one on the wrapped backend.
type tracedBackend struct {
	name, inner string
	runs        *runCounter
}

func (b *tracedBackend) base() measure.Backend {
	be, ok := measure.Lookup(b.inner)
	if !ok {
		panic("uopsbench: backend " + b.inner + " is not registered")
	}
	return be
}

func (b *tracedBackend) Name() string    { return b.name }
func (b *tracedBackend) Version() string { return b.base().Version() }

func (b *tracedBackend) Ready() error {
	if rc, ok := b.base().(measure.ReadyChecker); ok {
		return rc.Ready()
	}
	return nil
}

func (b *tracedBackend) FleetStats() (measure.FleetStats, bool) {
	if fr, ok := b.base().(measure.FleetReporter); ok {
		return fr.FleetStats()
	}
	return measure.FleetStats{}, false
}

func (b *tracedBackend) NewRunner(gen uarch.Generation) (measure.Runner, error) {
	r, err := b.base().NewRunner(gen)
	if err != nil {
		return nil, err
	}
	return &tracedRunner{inner: r, runs: b.runs}, nil
}

// tracedRunner times every Run of the wrapped runner and forwards forking
// and the divider-value regime, which the characterizer and the fleet
// worker set through type assertions.
type tracedRunner struct {
	inner measure.Runner
	runs  *runCounter
}

func (r *tracedRunner) Arch() *uarch.Arch { return r.inner.Arch() }

func (r *tracedRunner) Run(code asmgen.Sequence) (pipesim.Counters, error) {
	start := time.Now()
	c, err := r.inner.Run(code)
	r.runs.busyNS.Add(int64(time.Since(start)))
	r.runs.calls.Add(1)
	r.runs.cycles.Add(int64(c.Cycles))
	r.runs.uops.Add(int64(c.IssuedUops))
	return c, err
}

func (r *tracedRunner) ForkRunner() measure.Runner {
	switch in := r.inner.(type) {
	case measure.RunnerForker:
		return &tracedRunner{inner: in.ForkRunner(), runs: r.runs}
	case *pipesim.Machine:
		return &tracedRunner{inner: in.Clone(), runs: r.runs}
	}
	panic(fmt.Sprintf("uopsbench: runner %T cannot be forked", r.inner))
}

func (r *tracedRunner) SetDividerValues(v pipesim.DividerValues) {
	if s, ok := r.inner.(interface{ SetDividerValues(pipesim.DividerValues) }); ok {
		s.SetDividerValues(v)
	}
}

// Kinds of store filesystem operations the timing filesystem counts.
type fsKind int

const (
	fsRead fsKind = iota
	fsWrite
	fsFsync
	fsMeta // create, close, rename, remove, stat, list, mkdir
	fsKinds
)

var fsKindNames = [fsKinds]string{"read", "write", "fsync", "meta"}

// fsCounters aggregates the store's filesystem operations by kind: how
// many, how long, and the bytes read or written.
type fsCounters struct {
	ops, ns, bytes [fsKinds]atomic.Int64
}

type fsTotals struct {
	ops, ns, bytes [fsKinds]int64
}

func (c *fsCounters) add(k fsKind, start time.Time, bytes int) {
	c.ops[k].Add(1)
	c.ns[k].Add(int64(time.Since(start)))
	c.bytes[k].Add(int64(bytes))
}

func (c *fsCounters) snapshot() (t fsTotals) {
	for k := range t.ops {
		t.ops[k], t.ns[k], t.bytes[k] = c.ops[k].Load(), c.ns[k].Load(), c.bytes[k].Load()
	}
	return t
}

func (a fsTotals) sub(b fsTotals) (d fsTotals) {
	for k := range d.ops {
		d.ops[k], d.ns[k], d.bytes[k] = a.ops[k]-b.ops[k], a.ns[k]-b.ns[k], a.bytes[k]-b.bytes[k]
	}
	return d
}

// ioNS is the time spent in filesystem operations of every kind.
func (a fsTotals) ioNS() (ns int64) {
	for _, v := range a.ns {
		ns += v
	}
	return ns
}

// timingFS is the store's filesystem seam with every operation timed.
type timingFS struct {
	inner storefs.FS
	c     *fsCounters
}

func (t timingFS) ReadFile(path string) ([]byte, error) {
	start := time.Now()
	data, err := t.inner.ReadFile(path)
	t.c.add(fsRead, start, len(data))
	return data, err
}

func (t timingFS) ReadAt(path string, offset, length int64) ([]byte, error) {
	start := time.Now()
	data, err := t.inner.ReadAt(path, offset, length)
	t.c.add(fsRead, start, len(data))
	return data, err
}

func (t timingFS) CreateTemp(dir, pattern string) (storefs.File, error) {
	start := time.Now()
	f, err := t.inner.CreateTemp(dir, pattern)
	t.c.add(fsMeta, start, 0)
	if err != nil {
		return nil, err
	}
	return timedFile{File: f, c: t.c}, nil
}

func (t timingFS) Rename(oldpath, newpath string) error {
	defer t.c.add(fsMeta, time.Now(), 0)
	return t.inner.Rename(oldpath, newpath)
}

func (t timingFS) Remove(path string) error {
	defer t.c.add(fsMeta, time.Now(), 0)
	return t.inner.Remove(path)
}

func (t timingFS) Stat(path string) (fs.FileInfo, error) {
	defer t.c.add(fsMeta, time.Now(), 0)
	return t.inner.Stat(path)
}

func (t timingFS) ReadDir(dir string) ([]fs.DirEntry, error) {
	defer t.c.add(fsMeta, time.Now(), 0)
	return t.inner.ReadDir(dir)
}

func (t timingFS) MkdirAll(dir string, perm fs.FileMode) error {
	defer t.c.add(fsMeta, time.Now(), 0)
	return t.inner.MkdirAll(dir, perm)
}

func (t timingFS) SyncDir(dir string) error {
	defer t.c.add(fsFsync, time.Now(), 0)
	return t.inner.SyncDir(dir)
}

type timedFile struct {
	storefs.File
	c *fsCounters
}

func (f timedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.c.add(fsWrite, start, n)
	return n, err
}

func (f timedFile) Sync() error {
	defer f.c.add(fsFsync, time.Now(), 0)
	return f.File.Sync()
}

func (f timedFile) Close() error {
	defer f.c.add(fsMeta, time.Now(), 0)
	return f.File.Close()
}

// A span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the id of the span that caused this one (0: none).
// Runs and RunNS aggregate the Run calls made inside the span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Runs   int64  `json:"runs,omitempty"`
	RunNS  int64  `json:"run_ns,omitempty"`
	// ReqBytes and RespBytes are the HTTP body sizes of a request span.
	ReqBytes  int64 `json:"req_bytes,omitempty"`
	RespBytes int64 `json:"resp_bytes,omitempty"`
	SelfNS    int64 `json:"self_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Headers that carry span identity across HTTP hops.
const (
	spanHeader = "X-Uopsbench-Span"
	reqHeader  = "X-Uopsbench-Req"
)

// tracer keeps the spans of one run and the filesystem counters of its
// store.
type tracer struct {
	origin time.Time
	nextID atomic.Int64
	// current is the span of the engine call in progress on the fleet
	// workload's single caller: the parent of the fleet batches it causes.
	current atomic.Int64
	fs      fsCounters

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) newID() int64 { return t.nextID.Add(1) }

// at converts a wall-clock instant to the trace's time base.
func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.origin)) }

// record stores a finished span; a zero ID gets a fresh one.
func (t *tracer) record(s span) int64 {
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// mark returns the number of spans recorded so far; since returns the spans
// recorded after a mark.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) since(mark int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[mark:]...)
}

// covered returns how much of [lo, hi) the union of the intervals covers.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, reach int64 = 0, lo
	for _, x := range iv {
		a, b := max(x[0], reach), min(x[1], hi)
		if b > a {
			total += b - a
			reach = b
		}
	}
	return total
}

// writeSpans writes every span as one JSON document, one span per line,
// with SelfNS filled in: the span's duration minus the part of it its child
// spans and its aggregated Run calls cover. Call it once the run is over.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString(`{"spans":[` + "\n")
	for i, s := range spans {
		s.SelfNS = max(0, s.End-s.Start-covered(children[s.ID], s.Start, s.End)-s.RunNS)
		data, err := json.Marshal(s)
		if err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
		if i > 0 {
			w.WriteString(",\n")
		}
		w.Write(data)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// handler wraps a service in middleware that records one span per request,
// named name, with the request's class as its attribute and the caller's
// span (from the spanHeader) as its parent.
func (t *tracer) handler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		end := time.Now()
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		t.record(span{Parent: parent, Name: name, Req: r.Header.Get(reqHeader), Attr: requestClass(r),
			Start: t.at(start), End: t.at(end), RespBytes: cw.n})
	})
}

// requestClass names the serve-open class a request belongs to ("" for
// other endpoints).
func requestClass(r *http.Request) string {
	switch {
	case strings.Contains(r.URL.Path, "/variant/"):
		return "variant"
	case !strings.HasPrefix(r.URL.Path, "/v1/arch/"):
		return ""
	case r.URL.Query().Get("quick") != "":
		return "quick"
	case r.URL.Query().Get("only") != "":
		return "subset"
	}
	return "full"
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// transport is the fleet client's RoundTripper: one "fleet.batch" span per
// /v1/measure request, from the start of the round trip until the response
// body is closed (the client decodes while it reads), parented to the engine
// call in progress. The span id travels to the worker in spanHeader.
type transport struct {
	base http.RoundTripper
	t    *tracer
}

func (tr *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.HasSuffix(req.URL.Path, "/v1/measure") {
		return tr.base.RoundTrip(req)
	}
	id := tr.t.newID()
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	sp := span{ID: id, Parent: tr.t.current.Load(), Name: "fleet.batch", ReqBytes: req.ContentLength}
	start := time.Now()
	sp.Start = tr.t.at(start)
	resp, err := tr.base.RoundTrip(req)
	if err != nil {
		sp.End = tr.t.at(time.Now())
		tr.t.record(sp)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func(n int64) {
		sp.End = tr.t.at(time.Now())
		sp.RespBytes = n
		tr.t.record(sp)
	}}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}
