// POST /v1/measure: the measurement endpoint of a fleet worker. The body is
// one kernel with its copy counts and a generation; the response carries
// one raw simulator Counters per copy count. Both are read and written by
// package remote's hand-written codec. Each request takes a warm runner of
// its generation from the service's free list (takeRunner) and puts it
// back afterwards, the kernel is handed with all its copy counts to
// measure.RunCopies, and the endpoint sits behind the service's rate
// limiter like every other non-probe endpoint. A kernel that cannot be
// measured (unknown variant, operand mismatch, simulator rejection) is a
// deterministic property of the request and is reported inside a 200
// response, so a fleet client never retries it; only a malformed body, an
// unknown generation or a request over the copy-count or instruction budget
// is a 400.
package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"uopsinfo/internal/engine"
	"uopsinfo/internal/measure"
	"uopsinfo/internal/measure/remote"
	"uopsinfo/internal/pipesim"
	"uopsinfo/internal/uarch"
)

// maxMeasureBatch bounds the copy counts accepted in one request; the fleet
// client sends two per measurement (its short and long count).
const maxMeasureBatch = 1024

// maxMeasureBody bounds the request body (32 MiB). A request carries its
// kernel once, so the longest kernel a full-ISA characterization builds
// (257 instructions) takes a few KiB.
const maxMeasureBody = 32 << 20

// maxMeasureInstrs bounds the instructions one request may ask the worker
// to simulate: the kernel's length times each copy count, summed, an empty
// kernel counting as one instruction because the simulator still renames it
// once per copy (remote.ParseRequest applies it). Each reading is bounded at
// remote.MaxSeqLen (2^20) instructions, but maxMeasureBatch of them would be
// 2^30. The fleet client sends one measurement per request: the longest
// kernel a full-ISA characterization builds (257 instructions on every
// generation) at the paper's two copy counts (PaperConfig().ShortCopies and
// LongCopies, 10 and 110) is 30 840 instructions, far below this bound.
const maxMeasureInstrs = 1 << 22

// servingInfo assembles the engine's serving-backend identity. New computes
// it once: the engine's backend was ready at engine.New, and the
// measurement configuration is a constant.
func servingInfo(eng *engine.Engine) remote.ServingInfo {
	b := eng.Backend()
	mcfg := eng.MeasureConfig()
	return remote.ServingInfo{
		Name:          b.Name(),
		Version:       b.Version(),
		Fingerprint:   measure.Fingerprint(b),
		Measure:       mcfg,
		MeasureDigest: measureDigest(mcfg),
		WireVersion:   remote.WireVersion,
	}
}

// measureDigest hashes the measurement configuration into a short stable
// token for the handshake comparison.
func measureDigest(cfg measure.Config) string {
	data, err := json.Marshal(cfg)
	if err != nil {
		return "unhashable"
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// fingerprintOf derives the identity a worker echoes in every /v1/measure
// response from its serving identity, so clients detect a worker whose
// backend drifted since their handshake.
func fingerprintOf(info remote.ServingInfo) string {
	fp, err := remote.ServingFingerprint(info.Fingerprint, info.MeasureDigest)
	if err != nil {
		return info.Fingerprint
	}
	return fp
}

// servingFingerprint is the identity echoed in every /v1/measure response.
func (s *Service) servingFingerprint() string { return s.fingerprint }

// measureBufs recycles the buffers /v1/measure reads its requests into and
// writes its responses from.
var measureBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func (s *Service) handleMeasure(w http.ResponseWriter, r *http.Request) {
	buf := measureBufs.Get().(*bytes.Buffer)
	defer measureBufs.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxMeasureBody)); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("service: reading measure request: %w", err))
		return
	}
	req, err := remote.ParseRequest(buf.Bytes(), maxMeasureBatch, maxMeasureInstrs)
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("service: decoding measure request: %w", err))
		return
	}
	var cs []pipesim.Counters
	if req.Err == nil {
		gen := req.Arch.Gen()
		runner, err := s.takeRunner(gen)
		if err != nil {
			s.fail(w, http.StatusInternalServerError, err)
			return
		}
		if setter, ok := runner.(measure.DividerValueSetter); ok {
			setter.SetDividerValues(req.Div)
		}
		cs = make([]pipesim.Counters, len(req.Copies))
		req.Err = measure.RunCopies(runner, req.Kernel, req.Copies, cs)
		s.putRunner(gen, runner)
	}
	errMsg := ""
	if req.Err != nil {
		errMsg = req.Err.Error()
	}
	s.count(func(c *Counters) {
		c.MeasureBatches++
		c.MeasureSeqs += len(req.Copies)
		if req.Err != nil {
			c.MeasureSeqErrors += len(req.Copies)
		}
	})
	// Compact, not writeJSON's indented form: measurement requests are
	// fleet-internal traffic where body size is latency.
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Write(remote.AppendResponse(buf.Bytes()[:0], s.servingFingerprint(), cs, req.Arch.NumPorts(), errMsg))
}

// takeRunner returns a runner of gen for one /v1/measure request to own
// until putRunner: a warm one from the free list if there is one, a new
// one from the engine otherwise. Every request sets the runner's divider
// regime, and a runner is a pure function of its kernel and regime
// (measure.Runner), so a warm runner reads what a new one would; it keeps
// the rename templates and arenas that a new one builds again. Runners are
// never dropped, so a generation keeps as many as it ever had requests in
// flight at once.
func (s *Service) takeRunner(gen uarch.Generation) (measure.Runner, error) {
	s.runnersMu.Lock()
	free := s.runners[gen]
	if n := len(free); n > 0 {
		r := free[n-1]
		s.runners[gen] = free[:n-1]
		s.runnersMu.Unlock()
		return r, nil
	}
	s.runnersMu.Unlock()
	h, err := s.eng.Harness(gen)
	if err != nil {
		return nil, err
	}
	return h.Runner(), nil
}

// putRunner hands a runner taken with takeRunner back to gen's free list. A
// request whose measurement panicked never hands its runner back.
func (s *Service) putRunner(gen uarch.Generation, r measure.Runner) {
	s.runnersMu.Lock()
	s.runners[gen] = append(s.runners[gen], r)
	s.runnersMu.Unlock()
}
