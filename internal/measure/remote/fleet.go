package remote

// The fleet client: one runner call is one POST /v1/measure request. A call
// carries what one RunCopies measures: a kernel once, with its copy counts
// (a measurement's short and long count). It borrows a slot from its
// generation's slot pool, which holds InFlight slots per worker, posts its
// request under its own context and returns the slot. Sharding is emergent: a fast worker's slots
// come back sooner and carry more calls, and a failing worker's slots stay
// out of the pool while it is backed off or probed. A send that fails
// (transport error, non-200, an answer that is malformed or longer than
// maxResponseBody, drifted fingerprint or wire version, or no answer within
// requestTimeout) is sent again on the next free slot, up to maxAttempts
// (4) sends; a slow request that answers in time is waited for. The
// failed slot rests on a goroutine of its own before it goes back: a
// backoff, then /healthz probes once its worker reached unhealthyAfter
// consecutive failures. A call that gives up (callTimeout, 5 minutes, or
// fleet closed) cancels its request in flight. Calls never share a request:
// a caller that finds no free slot waits for one.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"uopsinfo/internal/measure"
	"uopsinfo/internal/pipesim"
)

// Options configures a fleet client.
type Options struct {
	// Workers are the base URLs of the uopsd workers (e.g.
	// "http://w1:8631"). At least one is required.
	Workers []string
	// InFlight is the number of requests a worker may have in flight per
	// generation. A run over k generations can therefore keep up to
	// k × InFlight requests on one worker. <= 0 selects 4.
	InFlight int
	// Client, if non-nil, is the HTTP client used for measurement requests
	// and probes. Each request is bounded by the 2-minute request timeout,
	// and by the client's own Timeout if that is shorter.
	Client *http.Client

	// maxAttempts bounds how many times one measurement is sent: its
	// maxAttempts-th transient failure fails it. <= 0 selects 4.
	maxAttempts int
	// callTimeout bounds how long one Run call waits for its result across
	// all retries; a call that times out cancels its request. <= 0 selects
	// 5m. Only tests set these two, to fail fast.
	callTimeout time.Duration
}

const (
	// requestTimeout bounds one /v1/measure request.
	requestTimeout = 2 * time.Minute
	// unhealthyAfter is the consecutive-failure threshold that takes a
	// worker out of rotation (it is then health-probed until it answers).
	unhealthyAfter = 3
)

func (o Options) withDefaults() Options {
	if o.InFlight <= 0 {
		o.InFlight = 4
	}
	if o.maxAttempts <= 0 {
		o.maxAttempts = 4
	}
	if o.callTimeout <= 0 {
		o.callTimeout = 5 * time.Minute
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	return o
}

// worker is one uopsd instance of the fleet.
type worker struct {
	url         string
	consecFails atomic.Int32

	batches   atomic.Int64
	seqs      atomic.Int64
	errors    atomic.Int64
	latencyUS atomic.Int64
}

// fleet is one configured set of workers plus their slot pools.
type fleet struct {
	opts        Options
	workers     []*worker
	fingerprint string // handshake-derived serving fingerprint of the fleet

	// ctx ends when the fleet closes: every call, resting slot and probe
	// runs under it.
	ctx    context.Context
	cancel context.CancelFunc

	mu    sync.Mutex
	pools map[string]chan *worker // free slots per generation name

	batches atomic.Int64
	seqs    atomic.Int64
	retries atomic.Int64
	errors  atomic.Int64
}

var errFleetClosed = errors.New("remote: fleet closed (reconfigured or shut down)")

func newFleet(opts Options, fingerprint string) *fleet {
	f := &fleet{
		opts:        opts,
		fingerprint: fingerprint,
		pools:       make(map[string]chan *worker),
	}
	f.ctx, f.cancel = context.WithCancel(context.Background())
	for _, url := range opts.Workers {
		f.workers = append(f.workers, &worker{url: url})
	}
	return f
}

// close fails every waiting call with errFleetClosed, cancels the requests
// in flight and ends the resting slots and their probes.
func (f *fleet) close() { f.cancel() }

// pool returns the free slots of one generation, filled on first use with
// InFlight slots per worker. A slot is its worker: holding one entitles a
// call to one request in flight there. The channel holds every slot, so
// returning one never blocks.
func (f *fleet) pool(gen string) chan *worker {
	f.mu.Lock()
	defer f.mu.Unlock()
	p, ok := f.pools[gen]
	if !ok {
		p = make(chan *worker, len(f.workers)*f.opts.InFlight)
		for i := 0; i < f.opts.InFlight; i++ {
			for _, w := range f.workers {
				p <- w
			}
		}
		f.pools[gen] = p
	}
	return p
}

// do measures one call's kernel at its len(out) copy counts in one request
// whose body is body, and writes one Counters per copy count to out.
func (f *fleet) do(gen string, body []byte, out []pipesim.Counters) error {
	n := len(out)
	pool := f.pool(gen)
	ctx, cancel := context.WithTimeout(f.ctx, f.opts.callTimeout)
	defer cancel()
	f.seqs.Add(int64(n))
	failures := 0
	for {
		var w *worker
		select {
		case w = <-pool:
		case <-ctx.Done():
			return f.gaveUp()
		}
		if int(w.consecFails.Load()) >= unhealthyAfter {
			// The worker failed while this slot was free: the slot probes it
			// back first, so it cannot take calls other workers would complete.
			go f.rest(w, pool)
			continue
		}
		resp, err := f.post(ctx, w, body, n)
		if err == nil {
			w.consecFails.Store(0)
			pool <- w
			return counters(w, resp, out)
		}
		if ctx.Err() != nil {
			// The call gave up with its request in flight, which says
			// nothing about the worker.
			pool <- w
			return f.gaveUp()
		}
		w.consecFails.Add(1)
		w.errors.Add(1)
		f.errors.Add(1)
		go f.rest(w, pool)
		failures++
		if failures >= f.opts.maxAttempts {
			return fmt.Errorf("remote: measurement failed after %d attempts: %w", f.opts.maxAttempts, err)
		}
		f.retries.Add(int64(n))
	}
}

// gaveUp is the error of a call whose context ended: the fleet closed, or
// the call timed out.
func (f *fleet) gaveUp() error {
	if f.ctx.Err() != nil {
		return errFleetClosed
	}
	return fmt.Errorf("remote: measurement timed out after %v", f.opts.callTimeout)
}

// counters converts a successful response into out; post checked that
// it holds one entry per copy count. The error of a kernel the worker
// could not measure (unknown variant, simulator rejection) is a
// deterministic property of the request: another worker would return the
// same error, so it fails the call.
func counters(w *worker, resp MeasureResponse, out []pipesim.Counters) error {
	if resp.Error != "" {
		return fmt.Errorf("remote: worker %s: %s", w.url, resp.Error)
	}
	for k, c := range resp.Counters {
		out[k] = c.sim()
	}
	return nil
}

// rest returns a slot to its pool after a backoff. While its worker is out
// of rotation (unhealthyAfter consecutive failures), the slot goes back only
// once a /healthz probe answered, probing with capped exponential backoff.
// It runs on a goroutine of its own, at most one per slot, and ends when
// the fleet closes.
func (f *fleet) rest(w *worker, pool chan *worker) {
	for fails := int(w.consecFails.Load()); f.sleep(backoff(fails)); fails = min(fails+1, 12) {
		if int(w.consecFails.Load()) >= unhealthyAfter {
			if !f.healthz(w) {
				continue
			}
			w.consecFails.Store(0)
		}
		pool <- w
		return
	}
}

// backoff is a failed slot's pause: 25ms doubling per consecutive failure
// of its worker, capped at 2s.
func backoff(consecFails int) time.Duration {
	d := 25 * time.Millisecond
	for i := 1; i < consecFails && d < 2*time.Second; i++ {
		d *= 2
	}
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

// sleep pauses for d and reports whether the fleet is still open.
func (f *fleet) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-f.ctx.Done():
		return false
	}
}

// healthz reports whether a worker's /healthz answers 200 within 2s.
func (f *fleet) healthz(w *worker) bool {
	ctx, cancel := context.WithTimeout(f.ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := f.opts.Client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// maxResponseBody bounds what the client reads of a worker's answer. A
// real answer is about 100 bytes per copy count; the longest a worker gives,
// to the most copy counts it accepts, is under a third of this bound.
const maxResponseBody = 1 << 20

// post sends one call's request for n copy counts to a worker and parses
// the answer. Any transport failure, non-2xx status, answer longer than
// maxResponseBody, malformed answer, fingerprint or wire-version drift (the
// worker restarted with a different build since the handshake) or wrong
// number of counters is a transient error: the caller sends again on
// another slot.
func (f *fleet) post(ctx context.Context, w *worker, body []byte, n int) (MeasureResponse, error) {
	f.batches.Add(1)
	w.batches.Add(1)
	w.seqs.Add(int64(n))
	start := time.Now()
	defer func() { w.latencyUS.Add(time.Since(start).Microseconds()) }()

	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	// A *bytes.Reader body gets its ContentLength and GetBody from
	// NewRequest, and the transport writes it with the headers in one
	// write: net/http flushes the headers separately before any other body.
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/v1/measure", bytes.NewReader(body))
	if err != nil {
		return MeasureResponse{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.opts.Client.Do(req)
	if err != nil {
		return MeasureResponse{}, fmt.Errorf("remote: worker %s: %w", w.url, err)
	}
	defer func() {
		// Drain a bounded rest so the connection can be reused; a longer
		// body is left to the connection's close.
		io.CopyN(io.Discard, resp.Body, maxResponseBody)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return MeasureResponse{}, fmt.Errorf("remote: worker %s: /v1/measure: status %d: %s",
			w.url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBody+1))
	if err != nil {
		return MeasureResponse{}, fmt.Errorf("remote: worker %s: reading /v1/measure response: %w", w.url, err)
	}
	if len(data) > maxResponseBody {
		return MeasureResponse{}, fmt.Errorf("remote: worker %s: /v1/measure response longer than %d bytes", w.url, maxResponseBody)
	}
	out, err := ParseResponse(data)
	if err != nil {
		return MeasureResponse{}, fmt.Errorf("remote: worker %s: %w", w.url, err)
	}
	if out.Fingerprint != f.fingerprint {
		return MeasureResponse{}, fmt.Errorf("remote: worker %s: serving fingerprint drifted to %q (handshake saw %q); cache keys would lie",
			w.url, out.Fingerprint, f.fingerprint)
	}
	if err := checkWireVersion(out.WireVersion); err != nil {
		return MeasureResponse{}, fmt.Errorf("remote: worker %s: %w", w.url, err)
	}
	if out.Error == "" && len(out.Counters) != n {
		return MeasureResponse{}, fmt.Errorf("remote: worker %s: response has %d counters for %d copy counts",
			w.url, len(out.Counters), n)
	}
	return out, nil
}

// stats snapshots the fleet counters.
func (f *fleet) stats() measure.FleetStats {
	s := measure.FleetStats{
		Fingerprint: f.fingerprint,
		Batches:     f.batches.Load(),
		Sequences:   f.seqs.Load(),
		Retries:     f.retries.Load(),
		Errors:      f.errors.Load(),
	}
	for _, w := range f.workers {
		ws := measure.FleetWorkerStats{
			URL:       w.url,
			Healthy:   int(w.consecFails.Load()) < unhealthyAfter,
			Batches:   w.batches.Load(),
			Sequences: w.seqs.Load(),
			Errors:    w.errors.Load(),
		}
		if ws.Batches > 0 {
			ws.AvgBatchMicros = w.latencyUS.Load() / ws.Batches
		}
		s.Workers = append(s.Workers, ws)
	}
	return s
}
