// Package remote implements the "remote" measurement backend: a
// measure.Backend whose runners fan sequence measurements out over HTTP to a
// pool of uopsd workers (the fleet), turning one process's -j parallelism
// into horizontal scale across machines. The execution substrate stays the
// workers' own backend (normally pipesim), so a loopback fleet produces
// byte-identical characterization output to a local run; the backend's
// Version is derived from a startup handshake against every worker's
// /v1/backends — the fleet's serving-backend fingerprint plus its
// measurement-config digest — so persistent cache keys stay honest across
// mixed-version fleets (a mismatched fleet is a hard configuration error,
// not silent cache pollution).
package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/measure"
	"uopsinfo/internal/pipesim"
	"uopsinfo/internal/uarch"
)

// BackendName is the registry name of the fleet backend.
const BackendName = "remote"

// EnvFleet is the environment variable consulted for worker URLs when no
// -fleet flag is given.
const EnvFleet = "UOPS_FLEET"

// backend is the registered measure.Backend. It is a shell around the
// currently configured fleet: Configure swaps a new fleet in (closing the
// previous one), and until the first Configure the backend reports
// not-ready, which makes engine.New fail instead of minting cache keys from
// a placeholder fingerprint.
type backend struct {
	mu sync.Mutex
	f  *fleet
}

var theBackend = &backend{}

func init() { measure.Register(theBackend) }

func (b *backend) current() *fleet {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.f
}

func (b *backend) Name() string { return BackendName }

// Version is the fleet fingerprint established by the Configure handshake.
// It is folded into every persistent cache key, so results measured on
// fleets serving different backend builds never collide.
func (b *backend) Version() string {
	f := b.current()
	if f == nil {
		return "unconfigured"
	}
	return "fleet(" + f.fingerprint + ")"
}

// Ready implements measure.ReadyChecker: the engine refuses to build on the
// remote backend before a fleet is configured.
func (b *backend) Ready() error {
	if b.current() == nil {
		return fmt.Errorf("remote: backend %q is not configured: pass -fleet URL,URL or set %s",
			BackendName, EnvFleet)
	}
	return nil
}

// FleetStats implements measure.FleetReporter.
func (b *backend) FleetStats() (measure.FleetStats, bool) {
	f := b.current()
	if f == nil {
		return measure.FleetStats{}, false
	}
	return f.stats(), true
}

// NewRunner returns a runner that measures on the configured fleet. Runners
// fork freely (the sharded scheduler gives every worker goroutine its own),
// all sharing the fleet's slot pools.
func (b *backend) NewRunner(gen uarch.Generation) (measure.Runner, error) {
	f := b.current()
	if f == nil {
		return nil, b.Ready()
	}
	arch, err := uarch.Lookup(gen)
	if err != nil {
		return nil, err
	}
	return &Runner{f: f, arch: arch, genName: arch.Name()}, nil
}

// Configure performs the startup handshake against every worker and installs
// the fleet as the backend's substrate, replacing (and closing) any
// previously configured fleet — runners created before a reconfiguration
// fail with a fleet-closed error. It fails hard when a worker is unreachable
// or when the workers disagree on their serving-backend fingerprint or
// measurement configuration: a mixed-version fleet would return
// inconsistent measurements under one cache fingerprint.
func Configure(opts Options) error {
	if len(opts.Workers) == 0 {
		return errors.New("remote: Configure needs at least one worker URL")
	}
	opts = opts.withDefaults()
	fingerprint, err := handshake(opts)
	if err != nil {
		return err
	}
	f := newFleet(opts, fingerprint)
	theBackend.mu.Lock()
	old := theBackend.f
	theBackend.f = f
	theBackend.mu.Unlock()
	if old != nil {
		old.close()
	}
	return nil
}

// Shutdown closes the configured fleet (if any) and returns the backend to
// its unconfigured state: waiting calls fail, requests in flight are
// cancelled, and resting slots and their probes stop.
func Shutdown() {
	theBackend.mu.Lock()
	old := theBackend.f
	theBackend.f = nil
	theBackend.mu.Unlock()
	if old != nil {
		old.close()
	}
}

// SplitList splits a comma-separated worker-URL list, trimming whitespace,
// empty entries and trailing slashes.
func SplitList(s string) []string {
	var urls []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimRight(strings.TrimSpace(part), "/")
		if part != "" {
			urls = append(urls, part)
		}
	}
	return urls
}

// ServingInfo is the "serving" object of a worker's /v1/backends response:
// the backend the worker's engine actually serves from, as opposed to the
// registry listing, which names every compiled-in backend. The handshake
// consumes it: Fingerprint is the exact name@version string folded into the
// worker's cache keys, MeasureDigest hashes the worker's
// measurement-protocol configuration, so a client can refuse to treat
// differently-configured workers as one fleet, and WireVersion is the fleet
// wire protocol /v1/measure speaks.
type ServingInfo struct {
	Name          string         `json:"name"`
	Version       string         `json:"version"`
	Fingerprint   string         `json:"fingerprint"`
	Measure       measure.Config `json:"measure"`
	MeasureDigest string         `json:"measureDigest"`
	WireVersion   int            `json:"wireVersion"`
}

// handshake queries every worker's /v1/backends and derives the fleet
// fingerprint. Every worker must speak this client's wire version, and all
// must report the same serving fingerprint and measurement-config digest.
func handshake(opts Options) (string, error) {
	type answer struct {
		url string
		fp  string
		err error
	}
	answers := make([]answer, len(opts.Workers))
	var wg sync.WaitGroup
	for i, url := range opts.Workers {
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			fp, err := handshakeWorker(opts.Client, url)
			answers[i] = answer{url: url, fp: fp, err: err}
		}(i, url)
	}
	wg.Wait()
	fingerprint := ""
	for _, a := range answers {
		if a.err != nil {
			return "", fmt.Errorf("remote: handshake with worker %s: %w", a.url, a.err)
		}
		if fingerprint == "" {
			fingerprint = a.fp
			continue
		}
		if a.fp != fingerprint {
			return "", fmt.Errorf("remote: fleet version mismatch: worker %s serves %q, worker %s serves %q — "+
				"a mixed fleet would pollute the result cache; align the workers and reconnect",
				answers[0].url, fingerprint, a.url, a.fp)
		}
	}
	return fingerprint, nil
}

func handshakeWorker(client *http.Client, url string) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/backends", nil)
	if err != nil {
		return "", err
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return "", fmt.Errorf("/v1/backends: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var info struct {
		Serving ServingInfo `json:"serving"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return "", fmt.Errorf("decoding /v1/backends: %w", err)
	}
	if err := checkWireVersion(info.Serving.WireVersion); err != nil {
		return "", err
	}
	return ServingFingerprint(info.Serving.Fingerprint, info.Serving.MeasureDigest)
}

// checkWireVersion refuses a worker reporting another wire version than
// this client's, or none (0: a worker from before the field existed).
func checkWireVersion(v int) error {
	if v == WireVersion {
		return nil
	}
	got := "none"
	if v != 0 {
		got = fmt.Sprint(v)
	}
	return fmt.Errorf("fleet wire version mismatch: worker speaks %s, this client speaks %d; upgrade the worker",
		got, WireVersion)
}

// ServingFingerprint combines a worker's serving-backend fingerprint
// (name@version, as folded into its cache keys) with its measurement-config
// digest into the identity string the handshake compares and /v1/measure
// responses echo.
func ServingFingerprint(fingerprint, measureDigest string) (string, error) {
	if fingerprint == "" {
		return "", errors.New("response carries no serving fingerprint (worker too old?)")
	}
	return fingerprint + " cfg=" + measureDigest, nil
}

// Runner is the fleet-backed execution substrate handed to measurement
// harnesses. It is not safe for concurrent use (like every Runner); the
// scheduler forks one per worker goroutine, and forks share the fleet's
// slot pools.
type Runner struct {
	f       *fleet
	arch    *uarch.Arch
	genName string
	div     pipesim.DividerValues
	size    int // the length of the last request, the capacity of the next
}

var (
	_ measure.CopiesRunner = (*Runner)(nil)
	_ measure.RunnerForker = (*Runner)(nil)
)

// Arch returns the measured microarchitecture (from the local tables; the
// workers are built from the same ones, which the handshake fingerprint
// pins).
func (r *Runner) Arch() *uarch.Arch { return r.arch }

// SetDividerValues selects the operand-value regime for divider-based
// instructions; it travels with every request so the worker's simulator
// runs under the same regime.
func (r *Runner) SetDividerValues(v pipesim.DividerValues) { r.div = v }

// ForkRunner returns an independent runner sharing the fleet, enabling the
// sharded parallel scheduler (and with it multiple requests in flight).
func (r *Runner) ForkRunner() measure.Runner {
	return &Runner{f: r.f, arch: r.arch, genName: r.genName, div: r.div}
}

// Run measures one sequence on the fleet, as RunCopies at one copy.
func (r *Runner) Run(code asmgen.Sequence) (pipesim.Counters, error) {
	var out [1]pipesim.Counters
	if err := r.RunCopies(code, []int{1}, out[:]); err != nil {
		return pipesim.Counters{}, err
	}
	return out[0], nil
}

// RunCopies measures code at each copy count in one /v1/measure request,
// which carries the kernel once (variant names plus concrete operands,
// repeated instances deduplicated) with all the counts, and writes the
// answer's counters to out. The request is written into a new slice sized
// by the runner's last request and never written again, so the transport
// may read it for as long as it likes (it can still hold the body of a
// failed request after Client.Do returns); nothing of code, copies or out
// is retained.
func (r *Runner) RunCopies(code asmgen.Sequence, copies []int, out []pipesim.Counters) error {
	if len(code) == 0 {
		return errors.New("remote: empty code sequence")
	}
	body := AppendRequest(make([]byte, 0, r.size), r.genName, r.div, code, copies)
	r.size = len(body)
	return r.f.do(r.genName, body, out[:len(copies)])
}
