// POST /v1/measure: the batch measurement endpoint of a fleet worker. The
// body is a list of encoded instruction sequences plus a generation; the
// response carries one raw simulator Counters per sequence. Execution rides
// the engine's pooled measurement stacks (one warm harness per concurrent
// batch, checked out for the duration of the request), each sequence is
// decoded and run once, and the endpoint sits behind the service's rate
// limiter like every other non-probe endpoint. Per-sequence failures
// (unknown variant, operand mismatch, simulator rejection) are deterministic
// properties of the request and are reported per sequence inside a 200
// response, so a fleet client never retries them; only a malformed body or
// unknown generation is a 400.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"

	"uopsinfo/internal/isa"
	"uopsinfo/internal/measure"
	"uopsinfo/internal/measure/remote"
	"uopsinfo/internal/pipesim"
	"uopsinfo/internal/uarch"
)

// maxMeasureBatch bounds the sequences accepted in one batch; clients are
// expected to stay far below it.
const maxMeasureBatch = 1024

// maxMeasureBody bounds the request body (32 MiB — a full batch is far
// smaller, because a sequence carries its kernel once plus a copy count).
const maxMeasureBody = 32 << 20

// dividerValueSetter is implemented by execution substrates that can switch
// the operand-value regime for divider-based instructions.
type dividerValueSetter interface {
	SetDividerValues(pipesim.DividerValues)
}

// ServingInfo identifies the backend a worker's engine actually serves from
// — as opposed to the registry listing, which names every compiled-in
// backend. The fleet handshake consumes it: Fingerprint is the exact
// name@version string folded into the worker's cache keys, MeasureDigest
// hashes the worker's measurement-protocol configuration, so a client can
// refuse to treat differently-configured workers as one fleet, and
// WireVersion is the fleet wire protocol /v1/measure speaks.
type ServingInfo struct {
	Name          string         `json:"name"`
	Version       string         `json:"version"`
	Fingerprint   string         `json:"fingerprint"`
	Measure       measure.Config `json:"measure"`
	MeasureDigest string         `json:"measureDigest"`
	WireVersion   int            `json:"wireVersion"`
}

// serving assembles the engine's serving-backend identity.
func (s *Service) serving() ServingInfo {
	b := s.eng.Backend()
	mcfg := s.eng.MeasureConfig()
	return ServingInfo{
		Name:          b.Name(),
		Version:       b.Version(),
		Fingerprint:   b.Name() + "@" + b.Version(),
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

// servingFingerprint is the identity echoed in every /v1/measure response so
// clients detect a worker whose backend drifted since their handshake.
func (s *Service) servingFingerprint() string {
	info := s.serving()
	fp, err := remote.ServingFingerprint(info.Fingerprint, info.MeasureDigest)
	if err != nil {
		return info.Fingerprint
	}
	return fp
}

func (s *Service) handleMeasure(w http.ResponseWriter, r *http.Request) {
	var req remote.MeasureRequest
	body := http.MaxBytesReader(w, r.Body, maxMeasureBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("service: decoding measure request: %w", err))
		return
	}
	arch, err := uarch.ByName(req.Gen)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Seqs) == 0 || len(req.Seqs) > maxMeasureBatch {
		s.fail(w, http.StatusBadRequest,
			fmt.Errorf("service: measure batch must hold 1..%d sequences, got %d", maxMeasureBatch, len(req.Seqs)))
		return
	}
	pool, err := s.eng.SequencePool(arch.Gen())
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	h, _, err := pool.Get()
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	defer pool.Put(h)
	runner := h.Runner()
	set := arch.InstrSet()

	resp := remote.MeasureResponse{
		Fingerprint: s.servingFingerprint(),
		WireVersion: remote.WireVersion,
		Counters:    make([]remote.Counters, len(req.Seqs)),
	}
	seqErrs := 0
	var errs []string
	for i, raw := range req.Seqs {
		c, err := measureSeq(set, runner, raw)
		if err != nil {
			if errs == nil {
				errs = make([]string, len(req.Seqs))
			}
			errs[i] = err.Error()
			seqErrs++
			continue
		}
		resp.Counters[i] = remote.EncodeCounters(c)
	}
	resp.Errs = errs
	s.count(func(c *Counters) {
		c.MeasureBatches++
		c.MeasureSeqs += len(req.Seqs)
		c.MeasureSeqErrors += seqErrs
	})
	// Compact encoding, not writeJSON's indented form: measurement batches
	// are fleet-internal traffic where body size is latency.
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		s.logf("service: encoding measure response: %v", err)
	}
}

// measureSeq decodes one sequence, sets its divider regime on the runner
// and runs it.
func measureSeq(set *isa.Set, runner measure.Runner, raw []byte) (pipesim.Counters, error) {
	var ws remote.Seq
	if err := json.Unmarshal(raw, &ws); err != nil {
		return pipesim.Counters{}, fmt.Errorf("decoding sequence: %w", err)
	}
	seq, err := remote.DecodeSeq(set, ws)
	if err != nil {
		return pipesim.Counters{}, err
	}
	if setter, ok := runner.(dividerValueSetter); ok {
		setter.SetDividerValues(pipesim.DividerValues(ws.Div))
	}
	return runner.Run(seq)
}
