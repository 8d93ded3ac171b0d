package remote

// This file defines the wire format of the fleet measurement protocol: the
// JSON bodies of POST /v1/measure requests and responses, and the lossless
// encoding of concrete instruction sequences. The encoding carries the
// variant *name* (unique within a generation's instruction set) plus the
// concrete operand values — registers, memory base+address, immediates —
// rather than assembler text, because text would have to be re-matched
// against the variant table on the worker and two variants can share a
// mnemonic and operand shape. Byte-identical characterization output depends
// on the worker reconstructing exactly the sequence the client built,
// including the virtual addresses of memory operands (they decide memory
// dependencies in the simulator).

import (
	"encoding/json"
	"fmt"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/isa"
	"uopsinfo/internal/pipesim"
)

// WireVersion is the revision of the fleet wire protocol this package
// speaks. Workers report it in the "serving" section of /v1/backends and in
// every /v1/measure response, and a client refuses a worker that reports
// another revision or none. Version 2 added Seq.Copies: a version-1 worker
// would ignore it and answer for a single copy.
const WireVersion = 2

// MaxSeqLen bounds the length of a decoded sequence, copies included. It
// sits far above the longest sequence the paper's protocol builds (110
// copies of a ~257-instruction kernel) and keeps a small request from
// asking for an arbitrarily large simulation.
const MaxSeqLen = 1 << 20

// Seq is one measurement request: a concrete instruction sequence under one
// divider-value regime. Repeated instructions are deduplicated by instance:
// Instrs holds each distinct instruction once and Order lists the execution
// order as indices into Instrs. An empty Order means Instrs in order. The
// measurement protocol runs n concatenated copies of a kernel; Copies
// carries n, and the worker's runner repeats the kernel itself.
type Seq struct {
	// Div is the operand-value regime for divider-based instructions
	// (pipesim.DividerValues; 0 is the slow regime).
	Div int `json:"div,omitempty"`
	// Instrs are the distinct instruction instances of the sequence.
	Instrs []Inst `json:"instrs"`
	// Order is the execution order as indices into Instrs (empty: identity).
	Order []int `json:"order,omitempty"`
	// Copies is how many times the worker runs the sequence back to back;
	// 0 and 1 both mean once.
	Copies int `json:"copies,omitempty"`
}

// Inst is one concrete instruction: an instruction-variant name plus the
// concrete values of its explicit operands.
type Inst struct {
	Name string `json:"name"`
	Ops  []Op   `json:"ops,omitempty"`
}

// Op is one concrete explicit operand. Exactly one of Reg, Base (a memory
// operand with its virtual address) or Imm is set.
type Op struct {
	Reg  string `json:"reg,omitempty"`
	Base string `json:"base,omitempty"`
	Addr uint64 `json:"addr,omitempty"`
	Imm  *int64 `json:"imm,omitempty"`
}

// Counters mirrors pipesim.Counters on the wire.
type Counters struct {
	Cycles     int   `json:"cycles"`
	PortUops   []int `json:"portUops,omitempty"`
	TotalUops  int   `json:"totalUops"`
	IssuedUops int   `json:"issuedUops"`
	ElimUops   int   `json:"elimUops"`
}

// MeasureRequest is the body of POST /v1/measure: a batch of encoded
// sequences to run on one generation. The fleet client sends the sequences
// of one measurement (a kernel at each of its copy counts) per request.
// Sequences stay raw JSON so the worker decodes each on its own: a
// malformed one fails alone, as a per-sequence error.
type MeasureRequest struct {
	Gen  string            `json:"gen"`
	Seqs []json.RawMessage `json:"seqs"`
}

// MeasureResponse is the body of a successful POST /v1/measure: one Counters
// entry per request sequence, plus the worker's serving fingerprint (which
// starts with the backend's name@version) and wire version so the client can
// detect a worker that drifted (restart with a new build) since the
// handshake. Errs, when non-empty, carries per-sequence error strings ("" =
// the sequence succeeded); such errors are deterministic properties of the
// sequence and must not be retried.
type MeasureResponse struct {
	Fingerprint string     `json:"fingerprint"`
	WireVersion int        `json:"wireVersion"`
	Counters    []Counters `json:"counters"`
	Errs        []string   `json:"errors,omitempty"`
}

// EncodeCounters converts simulator counters to their wire form.
func EncodeCounters(c pipesim.Counters) Counters {
	return Counters{Cycles: c.Cycles, PortUops: c.PortUops, TotalUops: c.TotalUops,
		IssuedUops: c.IssuedUops, ElimUops: c.ElimUops}
}

// DecodeCounters converts wire counters back to simulator counters.
func DecodeCounters(c Counters) pipesim.Counters {
	return pipesim.Counters{Cycles: c.Cycles, PortUops: c.PortUops, TotalUops: c.TotalUops,
		IssuedUops: c.IssuedUops, ElimUops: c.ElimUops}
}

// EncodeSeq encodes a concrete sequence under a divider-value regime, as
// one copy (the caller sets Copies). Instruction instances are deduplicated
// by pointer: kernels repeat instances (a port-usage kernel's blocking
// instructions), so the wire form carries each once plus the order.
func EncodeSeq(code asmgen.Sequence, div pipesim.DividerValues) Seq {
	ws := Seq{Div: int(div)}
	idx := make(map[*asmgen.Inst]int, 16)
	order := make([]int, len(code))
	identity := true
	for i, in := range code {
		j, ok := idx[in]
		if !ok {
			j = len(ws.Instrs)
			idx[in] = j
			ws.Instrs = append(ws.Instrs, encodeInst(in))
		}
		order[i] = j
		if j != i {
			identity = false
		}
	}
	if !identity || len(order) != len(ws.Instrs) {
		ws.Order = order
	}
	return ws
}

func encodeInst(in *asmgen.Inst) Inst {
	wi := Inst{Name: in.Variant.Name}
	for _, op := range in.Ops {
		var wo Op
		switch {
		case op.Mem != nil:
			wo.Base = op.Mem.Base.String()
			wo.Addr = op.Mem.Addr
		case op.HasImm:
			v := op.Imm
			wo.Imm = &v
		default:
			wo.Reg = op.Reg.String()
		}
		wi.Ops = append(wi.Ops, wo)
	}
	return wi
}

// DecodeSeq reconstructs the concrete kernel against a generation's
// instruction set and returns it with its copy count (at least 1), which
// the worker hands to measure.RunCopies. Order entries reference the same
// decoded instruction instance, mirroring the pointer sharing of the
// client's kernel. Every lookup or validation failure — a negative copy
// count, and a copy count above MaxSeqLen or a kernel × copies above it,
// included — is an error: these are deterministic request properties, never
// worth a retry.
func DecodeSeq(set *isa.Set, ws Seq) (asmgen.Sequence, int, error) {
	copies := ws.Copies
	if copies < 0 {
		return nil, 0, fmt.Errorf("remote: negative copy count %d", copies)
	}
	if copies == 0 {
		copies = 1
	}
	n := len(ws.Order)
	if ws.Order == nil {
		n = len(ws.Instrs)
	}
	// An empty kernel is bounded too: the simulator renames once per copy
	// even when a copy holds nothing.
	if copies > MaxSeqLen/max(n, 1) {
		return nil, 0, fmt.Errorf("remote: %d copies of %d instructions exceed the %d-instruction bound", copies, n, MaxSeqLen)
	}
	insts := make([]*asmgen.Inst, len(ws.Instrs))
	for i, wi := range ws.Instrs {
		in, err := decodeInst(set, wi)
		if err != nil {
			return nil, 0, err
		}
		insts[i] = in
	}
	kernel := asmgen.Sequence(insts)
	if ws.Order != nil {
		kernel = make(asmgen.Sequence, len(ws.Order))
		for i, j := range ws.Order {
			if j < 0 || j >= len(insts) {
				return nil, 0, fmt.Errorf("remote: sequence order index %d out of range (%d instructions)", j, len(insts))
			}
			kernel[i] = insts[j]
		}
	}
	return kernel, copies, nil
}

func decodeInst(set *isa.Set, wi Inst) (*asmgen.Inst, error) {
	variant := set.Lookup(wi.Name)
	if variant == nil {
		return nil, fmt.Errorf("remote: unknown instruction variant %q", wi.Name)
	}
	ops := make([]asmgen.Operand, len(wi.Ops))
	for i, wo := range wi.Ops {
		switch {
		case wo.Base != "":
			base := isa.ParseReg(wo.Base)
			if base == isa.RegNone {
				return nil, fmt.Errorf("remote: %s: unknown base register %q", wi.Name, wo.Base)
			}
			ops[i] = asmgen.MemOperand(base, wo.Addr)
		case wo.Imm != nil:
			ops[i] = asmgen.ImmOperand(*wo.Imm)
		case wo.Reg != "":
			r := isa.ParseReg(wo.Reg)
			if r == isa.RegNone {
				return nil, fmt.Errorf("remote: %s: unknown register %q", wi.Name, wo.Reg)
			}
			ops[i] = asmgen.RegOperand(r)
		default:
			return nil, fmt.Errorf("remote: %s: operand %d is empty", wi.Name, i+1)
		}
	}
	in, err := asmgen.NewInst(variant, ops...)
	if err != nil {
		return nil, fmt.Errorf("remote: %w", err)
	}
	return in, nil
}
