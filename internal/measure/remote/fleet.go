package remote

// The fleet dispatcher: runners submit encoded sequence measurements as
// calls onto a per-generation queue (one call carries the sequences of one
// runner call, e.g. a kernel at both copy counts of a measurement, and they
// always travel together); per-worker sender goroutines pull calls off the
// queue, coalesce whatever is immediately available into one batch
// (no linger delay — batching is opportunistic, driven by the concurrency of
// the characterization scheduler), and POST it to their worker. Sharding is
// emergent: every sender competes for the same queue, so a fast worker
// simply takes more batches and a failing one takes none while it is being
// probed. A call is in one place at a time, the queue or one batch, and is
// sent again only after its batch failed: a failed batch (transport error,
// non-200, drifted fingerprint, or no answer within batchTimeout) re-enqueues
// its undelivered calls for another worker, bounded by MaxAttempts, while the
// failing sender backs off; a slow batch that answers in time is waited for.
// Results are delivered exactly once per call via an atomic claim, which
// settles the race between the sender finishing a call's batch and the
// submitter giving up on it (call timeout or fleet close).

import (
	"bytes"
	"encoding/json"
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
	// InFlight is the number of sender slots a worker gets per generation,
	// each with at most one batch in flight. A run over k generations can
	// therefore keep up to k × InFlight batches on one worker. <= 0
	// selects 4.
	InFlight int
	// MaxAttempts bounds how many transient batch failures one sequence
	// survives before its measurement fails. <= 0 selects 4.
	MaxAttempts int
	// CallTimeout bounds how long one Run call waits for its result across
	// all retries. <= 0 selects 5m.
	CallTimeout time.Duration
	// Client, if non-nil, is the HTTP client used for measurement batches
	// and probes (its Timeout is ignored; the 2-minute batch timeout
	// governs requests).
	Client *http.Client
}

const (
	// batchSize caps the sequences coalesced into one /v1/measure request:
	// a sender stops adding calls once its batch holds this many. A call's
	// sequences always travel together, so the last call may carry the
	// batch past the cap.
	batchSize = 64
	// batchTimeout bounds one /v1/measure request.
	batchTimeout = 2 * time.Minute
	// unhealthyAfter is the consecutive-failure threshold that takes a
	// worker out of rotation (it is then health-probed until it answers).
	unhealthyAfter = 3
)

func (o Options) withDefaults() Options {
	if o.InFlight <= 0 {
		o.InFlight = 4
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 4
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 5 * time.Minute
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	return o
}

// callResult is the outcome of one call: one Counters per sequence.
type callResult struct {
	counters []pipesim.Counters
	err      error
}

// call is one runner call in flight through the fleet. encs are its
// marshaled wire Seqs (each including the divider regime and copy count).
// delivered is the exactly-once claim: whoever settles the call first — the
// sender whose batch finished, or the submitter giving up on it — writes
// done; the other side drops its result.
type call struct {
	encs      []json.RawMessage
	done      chan callResult
	delivered atomic.Bool
	attempts  atomic.Int32
}

func (c *call) deliver(r callResult) {
	if c.delivered.CompareAndSwap(false, true) {
		c.done <- r
	}
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

// fleet is one configured set of workers plus the dispatch machinery.
type fleet struct {
	opts        Options
	workers     []*worker
	fingerprint string // handshake-derived serving fingerprint of the fleet

	mu     sync.Mutex
	queues map[string]chan *call // per generation name

	closeOnce sync.Once
	closed    chan struct{}

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
		queues:      make(map[string]chan *call),
		closed:      make(chan struct{}),
	}
	for _, url := range opts.Workers {
		f.workers = append(f.workers, &worker{url: url})
	}
	return f
}

// close stops every sender and probe goroutine. Calls still queued or in
// flight are delivered errFleetClosed.
func (f *fleet) close() {
	f.closeOnce.Do(func() { close(f.closed) })
}

// queue returns (lazily creating) the dispatch queue of one generation,
// spawning the per-worker sender goroutines on first use.
func (f *fleet) queue(gen string) chan *call {
	f.mu.Lock()
	defer f.mu.Unlock()
	q, ok := f.queues[gen]
	if !ok {
		q = make(chan *call, 1024)
		f.queues[gen] = q
		for _, w := range f.workers {
			for i := 0; i < f.opts.InFlight; i++ {
				go f.serve(w, gen, q)
			}
		}
	}
	return q
}

// submit enqueues one call and waits for its result.
func (f *fleet) submit(gen string, c *call, timer *time.Timer) callResult {
	q := f.queue(gen)
	select {
	case q <- c:
	case <-f.closed:
		return callResult{err: errFleetClosed}
	}
	f.seqs.Add(int64(len(c.encs)))

	timer.Reset(f.opts.CallTimeout)
	defer timer.Stop()
	select {
	case res := <-c.done:
		return res
	case <-timer.C:
		// Claim the call so late senders skip it; if a result won the race
		// in the meantime, take it.
		if !c.delivered.CompareAndSwap(false, true) {
			return <-c.done
		}
		return callResult{err: fmt.Errorf("remote: measurement timed out after %v", f.opts.CallTimeout)}
	case <-f.closed:
		if !c.delivered.CompareAndSwap(false, true) {
			return <-c.done
		}
		return callResult{err: errFleetClosed}
	}
}

// serve is one sender slot of one worker: pull a call, coalesce what else is
// immediately queued, send the batch. A worker beyond its failure threshold
// is first probed back to health so it cannot keep consuming (and failing)
// calls other workers would complete.
func (f *fleet) serve(w *worker, gen string, q chan *call) {
	for {
		if int(w.consecFails.Load()) >= unhealthyAfter {
			if !f.probe(w) {
				return // fleet closed
			}
		}
		var c *call
		select {
		case <-f.closed:
			return
		case c = <-q:
		}
		if c.delivered.Load() {
			continue
		}
		batch, n := []*call{c}, len(c.encs)
	drain:
		for n < batchSize {
			select {
			case c2 := <-q:
				if !c2.delivered.Load() {
					batch = append(batch, c2)
					n += len(c2.encs)
				}
			default:
				break drain
			}
		}
		f.send(w, gen, batch, n, q)
	}
}

// send posts one batch of n sequences to a worker and delivers or
// re-enqueues its calls.
func (f *fleet) send(w *worker, gen string, batch []*call, n int, q chan *call) {
	f.batches.Add(1)
	w.batches.Add(1)
	w.seqs.Add(int64(n))

	start := time.Now()
	resp, err := f.post(w, gen, batch, n)
	w.latencyUS.Add(time.Since(start).Microseconds())

	if err != nil {
		w.consecFails.Add(1)
		w.errors.Add(1)
		f.errors.Add(1)
		f.requeue(batch, q, err)
		// Back this sender off before it pulls again; re-enqueued calls are
		// already available to every other sender.
		f.sleep(backoff(int(w.consecFails.Load())))
		return
	}
	w.consecFails.Store(0)
	i := 0
	for _, c := range batch {
		res := callResult{counters: make([]pipesim.Counters, len(c.encs))}
		for k := range res.counters {
			if resp.Errs != nil && resp.Errs[i+k] != "" {
				// A per-sequence error is a deterministic property of the
				// request (unknown variant, simulator rejection) — retrying
				// it on another worker would return the same error. It
				// fails the whole call.
				res = callResult{err: fmt.Errorf("remote: worker %s: %s", w.url, resp.Errs[i+k])}
				break
			}
			res.counters[k] = DecodeCounters(resp.Counters[i+k])
		}
		i += len(c.encs)
		c.deliver(res)
	}
}

// requeue returns a failed batch's undelivered calls to the queue, failing
// the ones that exhausted their attempt budget.
func (f *fleet) requeue(batch []*call, q chan *call, cause error) {
	for _, c := range batch {
		if c.delivered.Load() {
			continue
		}
		if int(c.attempts.Add(1)) >= f.opts.MaxAttempts {
			c.deliver(callResult{err: fmt.Errorf("remote: measurement failed after %d attempts: %w",
				f.opts.MaxAttempts, cause)})
			continue
		}
		f.retries.Add(int64(len(c.encs)))
		select {
		case q <- c:
		case <-f.closed:
			c.deliver(callResult{err: errFleetClosed})
		}
	}
}

// backoff is the sender's post-failure pause: 25ms doubling per consecutive
// failure, capped at 2s.
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

func (f *fleet) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-f.closed:
	}
}

// probe takes an unhealthy worker through /healthz until it answers again,
// with capped exponential backoff. Returns false when the fleet closed.
func (f *fleet) probe(w *worker) bool {
	fails := int(w.consecFails.Load())
	for {
		f.sleep(backoff(fails))
		select {
		case <-f.closed:
			return false
		default:
		}
		req, err := http.NewRequest(http.MethodGet, w.url+"/healthz", nil)
		if err != nil {
			return false
		}
		ctx, cancel := timeoutContext(2 * time.Second)
		resp, err := f.opts.Client.Do(req.WithContext(ctx))
		cancel()
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				w.consecFails.Store(0)
				return true
			}
		}
		if fails < 12 {
			fails++
		}
	}
}

// post sends one batch of n sequences and decodes the response. Any
// transport failure, non-2xx status, fingerprint or wire-version drift (the
// worker restarted with a different build since the handshake) is a
// transient error: the caller re-enqueues the calls for another worker.
func (f *fleet) post(w *worker, gen string, batch []*call, n int) (*MeasureResponse, error) {
	reqBody := MeasureRequest{Gen: gen, Seqs: make([]json.RawMessage, 0, n)}
	for _, c := range batch {
		reqBody.Seqs = append(reqBody.Seqs, c.encs...)
	}
	body, err := json.Marshal(reqBody)
	if err != nil {
		return nil, fmt.Errorf("remote: encoding batch: %w", err)
	}
	req, err := http.NewRequest(http.MethodPost, w.url+"/v1/measure", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	ctx, cancel := timeoutContext(batchTimeout)
	defer cancel()
	resp, err := f.opts.Client.Do(req.WithContext(ctx))
	if err != nil {
		return nil, fmt.Errorf("remote: worker %s: %w", w.url, err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("remote: worker %s: /v1/measure: status %d: %s",
			w.url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	var out MeasureResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("remote: worker %s: decoding /v1/measure response: %w", w.url, err)
	}
	if len(out.Counters) != n || (out.Errs != nil && len(out.Errs) != n) {
		return nil, fmt.Errorf("remote: worker %s: response has %d counters for %d sequences",
			w.url, len(out.Counters), n)
	}
	if out.Fingerprint != f.fingerprint {
		return nil, fmt.Errorf("remote: worker %s: serving fingerprint drifted to %q (handshake saw %q); cache keys would lie",
			w.url, out.Fingerprint, f.fingerprint)
	}
	if err := checkWireVersion(out.WireVersion); err != nil {
		return nil, fmt.Errorf("remote: worker %s: %w", w.url, err)
	}
	return &out, nil
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
