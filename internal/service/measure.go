// POST /v1/measure: the batch measurement endpoint of a fleet worker. The
// body is a list of encoded instruction sequences plus a generation; the
// response carries one raw simulator Counters per sequence. Execution rides
// the engine's pooled measurement stacks (one warm harness per concurrent
// batch, checked out for the duration of the request), each sequence is
// decoded once and its kernel handed with its copy count to
// measure.RunCopies, and the endpoint sits behind the service's rate
// limiter like every other non-probe endpoint. Per-sequence failures
// (unknown variant, operand mismatch, simulator rejection) are deterministic
// properties of the request and are reported per sequence inside a 200
// response, so a fleet client never retries them; only a malformed body, an
// unknown generation or a batch over the instruction budget is a 400.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"uopsinfo/internal/asmgen"
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

// maxMeasureInstrs bounds the instructions one batch may ask the worker to
// simulate: the sum over its sequences of kernel length × copies, an empty
// kernel counting as one instruction because the simulator still renames it
// once per copy (remote.DecodeSeq bounds a sequence the same way). Each
// sequence is bounded at remote.MaxSeqLen (2^20), but maxMeasureBatch of
// them would be 2^30. The fleet client sends one measurement per request:
// the longest kernel a full-ISA characterization builds (257 instructions
// on every generation) at the paper's two copy counts
// (PaperConfig().ShortCopies and LongCopies, 10 and 110) is 30 840
// instructions, far below this bound.
const maxMeasureInstrs = 1 << 22

// dividerValueSetter is implemented by execution substrates that can switch
// the operand-value regime for divider-based instructions.
type dividerValueSetter interface {
	SetDividerValues(pipesim.DividerValues)
}

// serving assembles the engine's serving-backend identity.
func (s *Service) serving() remote.ServingInfo {
	b := s.eng.Backend()
	mcfg := s.eng.MeasureConfig()
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
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxMeasureBody))
	err := dec.Decode(&req)
	if err == nil {
		// Anything but whitespace after the object makes the body malformed.
		if _, end := dec.Token(); end != io.EOF {
			err = errors.New("data after the request object")
		}
	}
	if err != nil {
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
	// Decode the whole batch before simulating anything, so an over-budget
	// batch costs no simulation.
	set := arch.InstrSet()
	seqs := make([]decodedSeq, len(req.Seqs))
	instrs := 0
	for i, raw := range req.Seqs {
		seqs[i] = decodeSeq(set, raw)
		instrs += max(len(seqs[i].kernel), 1) * seqs[i].copies
	}
	if instrs > maxMeasureInstrs {
		s.fail(w, http.StatusBadRequest,
			fmt.Errorf("service: measure batch asks for %d instructions, above the %d-instruction budget", instrs, maxMeasureInstrs))
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

	resp := remote.MeasureResponse{
		Fingerprint: s.servingFingerprint(),
		WireVersion: remote.WireVersion,
		Counters:    make([]remote.Counters, len(req.Seqs)),
	}
	seqErrs := 0
	var errs []string
	for i, seq := range seqs {
		c, err := seq.run(runner)
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

// decodedSeq is one decoded sequence of a batch: the kernel, its copy count
// and divider regime, or the error that failed its decoding.
type decodedSeq struct {
	kernel asmgen.Sequence
	copies int
	div    pipesim.DividerValues
	err    error
}

func decodeSeq(set *isa.Set, raw []byte) decodedSeq {
	var ws remote.Seq
	if err := json.Unmarshal(raw, &ws); err != nil {
		return decodedSeq{err: fmt.Errorf("decoding sequence: %w", err)}
	}
	kernel, copies, err := remote.DecodeSeq(set, ws)
	return decodedSeq{kernel: kernel, copies: copies, div: pipesim.DividerValues(ws.Div), err: err}
}

// run sets the sequence's divider regime on the runner and runs its copies.
func (d decodedSeq) run(runner measure.Runner) (pipesim.Counters, error) {
	if d.err != nil {
		return pipesim.Counters{}, d.err
	}
	if setter, ok := runner.(dividerValueSetter); ok {
		setter.SetDividerValues(d.div)
	}
	cs, err := measure.RunCopies(runner, d.kernel, d.copies)
	if err != nil {
		return pipesim.Counters{}, err
	}
	return cs[0], nil
}
