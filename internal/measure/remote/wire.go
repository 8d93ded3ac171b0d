package remote

// This file defines the wire format of the fleet measurement protocol: the
// JSON bodies of POST /v1/measure requests and responses. A request carries
// one kernel with the copy counts to run it at, which is what one
// Runner.RunCopies call measures. The kernel travels as variant *names*
// (unique within a generation's instruction set) plus the concrete operand
// values — registers, memory base+address, immediates — rather than
// assembler text, because text would have to be re-matched against the
// variant table on the worker and two variants can share a mnemonic and
// operand shape. Byte-identical characterization output depends on the
// worker reconstructing exactly the kernel the client built, including the
// virtual addresses of memory operands (they decide memory dependencies in
// the simulator).
//
// AppendRequest and AppendResponse below write the bodies, and ParseRequest
// and ParseResponse (parse.go) read them, all without reflection. The
// JSON-tagged types are the documented schema; the tests decode the bodies
// with encoding/json into them as the reference.

import (
	"strconv"
	"unicode/utf8"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/pipesim"
)

// WireVersion is the revision of the fleet wire protocol this package
// speaks. Workers report it in the "serving" section of /v1/backends and in
// every /v1/measure response, and a client refuses a worker that reports
// another revision or none. Version 3 carries the kernel once with all its
// copy counts; version 2 carried a batch of sequences, each with one copy
// count.
const WireVersion = 3

// MaxSeqLen bounds the instructions of one reading: a kernel's length times
// a copy count. It sits far above the longest reading the paper's protocol
// takes (110 copies of a ~257-instruction kernel) and keeps a small request
// from asking for an arbitrarily large simulation.
const MaxSeqLen = 1 << 20

// MeasureRequest is the body of POST /v1/measure: one kernel to run on one
// generation under one divider-value regime, at each of its copy counts.
// Repeated instructions are deduplicated by instance: Instrs holds each
// distinct instruction once and Order lists the kernel as indices into
// Instrs. No Order means Instrs in order. A copy count n asks for the
// counters of n concatenated copies of the kernel, which the worker's runner
// repeats itself.
type MeasureRequest struct {
	// Gen names the generation (uarch.ByName).
	Gen string `json:"gen"`
	// Div is the operand-value regime for divider-based instructions
	// (pipesim.DividerValues; 0 is the slow regime).
	Div int `json:"div,omitempty"`
	// Copies are the copy counts to measure, in the order of the answer's
	// counters.
	Copies []int `json:"copies"`
	// Instrs are the distinct instruction instances of the kernel.
	Instrs []Inst `json:"instrs"`
	// Order is the kernel as indices into Instrs (absent: identity).
	Order []int `json:"order,omitempty"`
}

// Inst is one concrete instruction: an instruction-variant name plus the
// concrete values of its explicit operands.
type Inst struct {
	Name string `json:"name"`
	Ops  []Op   `json:"ops,omitempty"`
}

// Op is one concrete explicit operand. Exactly one of Reg, Base (a memory
// operand with its virtual address) or Imm is set; a reader takes a
// non-empty Base before an Imm, and an Imm before a non-empty Reg.
type Op struct {
	Reg  string `json:"reg,omitempty"`
	Base string `json:"base,omitempty"`
	Addr uint64 `json:"addr,omitempty"`
	Imm  *int64 `json:"imm,omitempty"`
}

// Counters is pipesim.Counters on the wire: PortUops holds one entry per
// port of the request's generation, at most pipesim.MaxPorts.
type Counters struct {
	Cycles     int   `json:"cycles"`
	PortUops   []int `json:"portUops,omitempty"`
	TotalUops  int   `json:"totalUops"`
	IssuedUops int   `json:"issuedUops"`
	ElimUops   int   `json:"elimUops"`
}

// sim returns c as pipesim.Counters. ParseResponse refuses more than
// pipesim.MaxPorts port counts, so none is cut.
func (c Counters) sim() pipesim.Counters {
	out := pipesim.Counters{Cycles: c.Cycles, TotalUops: c.TotalUops, IssuedUops: c.IssuedUops, ElimUops: c.ElimUops}
	copy(out.PortUops[:], c.PortUops)
	return out
}

// MeasureResponse is the body of a 200 answer to POST /v1/measure. It
// carries the worker's serving fingerprint (which starts with the backend's
// name@version) and wire version, so the client can detect a worker that
// drifted (restart with a new build) since the handshake, and then either
// one Counters per copy count of the request, in order, or the Error that
// kept the kernel from being measured. Such an error — an unknown variant,
// operands the variant refuses, a run that does not drain — is a
// deterministic property of the kernel, and the client never retries it.
type MeasureResponse struct {
	Fingerprint string     `json:"fingerprint"`
	WireVersion int        `json:"wireVersion"`
	Counters    []Counters `json:"counters,omitempty"`
	Error       string     `json:"error,omitempty"`
}

// AppendRequest appends to b the body of a request that measures code on
// generation gen under divider regime div at each copy count, and returns
// the extended buffer. Instruction instances are deduplicated by pointer:
// kernels repeat instances (a port-usage kernel's blocking instruction), so
// the body carries each once plus the order.
func AppendRequest(b []byte, gen string, div pipesim.DividerValues, code asmgen.Sequence, copies []int) []byte {
	b = append(b, `{"gen":`...)
	b = appendString(b, gen)
	if div != 0 {
		b = append(b, `,"div":`...)
		b = strconv.AppendInt(b, int64(div), 10)
	}
	b = append(b, `,"copies":`...)
	b = appendInts(b, copies)
	b = append(b, `,"instrs":[`...)
	// Kernels hold few distinct instances (a port-usage kernel two), so a
	// scan of those written so far finds a repeat sooner than a map would.
	var written [16]*asmgen.Inst
	distinct := written[:0]
	identity := true
	for _, in := range code {
		if indexOf(distinct, in, 0) >= 0 {
			identity = false
			continue
		}
		if len(distinct) > 0 {
			b = append(b, ',')
		}
		distinct = append(distinct, in)
		b = appendInst(b, in)
	}
	b = append(b, ']')
	if !identity {
		b = append(b, `,"order":[`...)
		j := 0
		for i, in := range code {
			if i > 0 {
				b = append(b, ',')
			}
			j = indexOf(distinct, in, j)
			b = strconv.AppendInt(b, int64(j), 10)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// indexOf returns the index of in among distinct, trying hint first (a
// kernel often repeats its previous instance), or -1.
func indexOf(distinct []*asmgen.Inst, in *asmgen.Inst, hint int) int {
	if hint < len(distinct) && distinct[hint] == in {
		return hint
	}
	for j := len(distinct) - 1; j >= 0; j-- {
		if distinct[j] == in {
			return j
		}
	}
	return -1
}

func appendInst(b []byte, in *asmgen.Inst) []byte {
	b = append(b, `{"name":`...)
	b = appendString(b, in.Variant.Name)
	if len(in.Ops) > 0 {
		b = append(b, `,"ops":[`...)
		for i, op := range in.Ops {
			if i > 0 {
				b = append(b, ',')
			}
			switch {
			case op.IsMem():
				b = append(b, `{"base":`...)
				b = appendString(b, op.Mem.Base.String())
				if op.Mem.Addr != 0 {
					b = append(b, `,"addr":`...)
					b = strconv.AppendUint(b, op.Mem.Addr, 10)
				}
			case op.HasImm:
				b = append(b, `{"imm":`...)
				b = strconv.AppendInt(b, op.Imm, 10)
			default:
				b = append(b, `{"reg":`...)
				b = appendString(b, op.Reg.String())
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// AppendResponse appends to b the body of a 200 answer — the serving
// fingerprint, this package's wire version, then one entry per counters,
// each with the first numPorts port counts, and errMsg unless it is empty —
// and returns the extended buffer.
func AppendResponse(b []byte, fingerprint string, counters []pipesim.Counters, numPorts int, errMsg string) []byte {
	b = append(b, `{"fingerprint":`...)
	b = appendString(b, fingerprint)
	b = append(b, `,"wireVersion":`...)
	b = strconv.AppendInt(b, WireVersion, 10)
	if len(counters) > 0 {
		b = append(b, `,"counters":[`...)
		for i, c := range counters {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"cycles":`...)
			b = strconv.AppendInt(b, int64(c.Cycles), 10)
			if numPorts > 0 {
				b = append(b, `,"portUops":`...)
				b = appendInts(b, c.PortUops[:numPorts])
			}
			b = append(b, `,"totalUops":`...)
			b = strconv.AppendInt(b, int64(c.TotalUops), 10)
			b = append(b, `,"issuedUops":`...)
			b = strconv.AppendInt(b, int64(c.IssuedUops), 10)
			b = append(b, `,"elimUops":`...)
			b = strconv.AppendInt(b, int64(c.ElimUops), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if errMsg != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, errMsg)
	}
	return append(b, '}')
}

func appendInts(b []byte, vs []int) []byte {
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string. A byte that is not part of valid
// UTF-8 is written as U+FFFD, as encoding/json writes it.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		switch c := s[i]; {
		case c >= utf8.RuneSelf:
			if r, size := utf8.DecodeRuneInString(s[i:]); r != utf8.RuneError || size != 1 {
				i += size
				continue
			}
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case c >= 0x20 && c != '"' && c != '\\':
			i++
			continue
		default:
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
		}
		i++
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
