package remote

// ParseRequest and ParseResponse read the two bodies of POST /v1/measure in
// one pass, without reflection. Wherever they accept a body they read it as
// encoding/json reads it into MeasureRequest or MeasureResponse; the fuzz
// targets hold them to that. They refuse some bodies encoding/json accepts:
// null, keys that are unknown, repeated or differ in case, numbers with a
// fraction or an exponent, strings that are not valid UTF-8 or escape a lone
// surrogate, and a request whose "instrs" come before its "gen" (the kernel
// is built from the generation's instruction set as it is read).

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/isa"
	"uopsinfo/internal/pipesim"
	"uopsinfo/internal/uarch"
)

// Request is a parsed /v1/measure request: what one Runner.RunCopies call
// asks a worker to measure.
type Request struct {
	Arch *uarch.Arch
	Div  pipesim.DividerValues
	// Copies are the copy counts, in the order the answer's counters take.
	Copies []int
	// Kernel is the kernel to run at each copy count. Order entries that
	// name one instruction share one instance, as in the client's kernel
	// (the simulator keys memory dependencies on operand identity).
	Kernel asmgen.Sequence
	// Err, if not nil, is why the kernel cannot be measured: an unknown
	// variant or register, an empty operand, operands the variant refuses,
	// an order index out of range, or a copy count that is negative or
	// expands the kernel past MaxSeqLen instructions. It is a deterministic
	// property of the request, answered inside a 200 and never retried, and
	// Kernel is then nil.
	Err error
}

// archByName maps each generation's canonical name, the one clients send,
// to its Arch.
var archByName = sync.OnceValue(func() map[string]*uarch.Arch {
	m := make(map[string]*uarch.Arch)
	for _, a := range uarch.All() {
		m[a.Name()] = a
	}
	return m
})

// lookupArch resolves a generation name: a canonical one by table, any
// other spelling through uarch.ByName.
func lookupArch(name []byte) (*uarch.Arch, error) {
	if a := archByName()[string(name)]; a != nil {
		return a, nil
	}
	return uarch.ByName(string(name))
}

var (
	requestKeys  = []string{"gen", "div", "copies", "instrs", "order"}
	instKeys     = []string{"name", "ops"}
	opKeys       = []string{"reg", "base", "addr", "imm"}
	responseKeys = []string{"fingerprint", "wireVersion", "counters", "error"}
	counterKeys  = []string{"cycles", "portUops", "totalUops", "issuedUops", "elimUops"}
)

// ParseRequest reads a /v1/measure request body. An error means the request
// must be refused with a 400: the body is malformed, names no known
// generation, carries no copy count or more than maxCopies, or asks for more
// than maxInstrs simulated instructions in all — the kernel's length times
// each copy count, summed, where an empty kernel counts one instruction per
// copy because the simulator still renames it once per copy. A kernel that
// cannot be measured is no error here: it comes back in Request.Err.
func ParseRequest(body []byte, maxCopies, maxInstrs int) (Request, error) {
	s := scanner{b: body}
	var (
		req   Request
		insts []*asmgen.Inst
		order []int // nil unless the body has an "order"
		seen  uint32
	)
	s.expect('{')
	for n := 0; s.more(n, '}'); n++ {
		switch s.key(&seen, requestKeys) {
		case "gen":
			if name := s.str(); s.err == nil {
				req.Arch, s.err = lookupArch(name)
			}
		case "div":
			req.Div = pipesim.DividerValues(s.int())
		case "copies":
			req.Copies = s.ints(maxCopies, "copy counts")
		case "instrs":
			if req.Arch == nil {
				s.fail(`"instrs" before "gen"`)
				break
			}
			set := req.Arch.InstrSet()
			insts = []*asmgen.Inst{}
			s.expect('[')
			for m := 0; s.more(m, ']'); m++ {
				// After the first invalid instruction the rest is only read.
				if req.Err != nil {
					s.inst(nil)
					continue
				}
				in, err := s.inst(set)
				req.Err = err
				insts = append(insts, in)
			}
		case "order":
			order = s.ints(len(body), "order entries")
		}
	}
	s.end()
	switch {
	case s.err != nil:
		return Request{}, fmt.Errorf("remote: measure request: %w", s.err)
	case req.Arch == nil:
		return Request{}, errors.New(`remote: measure request: no "gen"`)
	case insts == nil:
		return Request{}, errors.New(`remote: measure request: no "instrs"`)
	case len(req.Copies) == 0:
		return Request{}, errors.New("remote: measure request: no copy counts")
	}
	if req.Err != nil {
		return req, nil
	}
	n := len(insts)
	if order != nil {
		n = len(order)
	}
	for _, c := range req.Copies {
		switch {
		case c < 0:
			req.Err = fmt.Errorf("remote: negative copy count %d", c)
			return req, nil
		case c > MaxSeqLen/max(n, 1):
			req.Err = fmt.Errorf("remote: %d copies of %d instructions exceed the %d-instruction bound", c, n, MaxSeqLen)
			return req, nil
		}
	}
	kernel := asmgen.Sequence(insts)
	if order != nil {
		kernel = make(asmgen.Sequence, len(order))
		for i, j := range order {
			if j < 0 || j >= len(insts) {
				req.Err = fmt.Errorf("remote: sequence order index %d out of range (%d instructions)", j, len(insts))
				return req, nil
			}
			kernel[i] = insts[j]
		}
	}
	instrs := 0
	for _, c := range req.Copies {
		instrs += max(n, 1) * c
	}
	if instrs > maxInstrs {
		return Request{}, fmt.Errorf("remote: measure request asks for %d instructions, above the %d-instruction budget", instrs, maxInstrs)
	}
	req.Kernel = kernel
	return req, nil
}

// inst reads one instruction object and builds it from set. A syntax error
// goes to s.err; an unknown variant or an operand it refuses is returned.
// With a nil set the object is only read.
func (s *scanner) inst(set *isa.Set) (*asmgen.Inst, error) {
	var (
		name  []byte
		ops   []asmgen.Operand
		opErr error
		seen  uint32
	)
	s.expect('{')
	for n := 0; s.more(n, '}'); n++ {
		switch s.key(&seen, instKeys) {
		case "name":
			name = s.str()
		case "ops":
			if set != nil {
				ops = make([]asmgen.Operand, 0, 4) // no variant has more explicit operands
			}
			s.expect('[')
			for m := 0; s.more(m, ']'); m++ {
				o := s.op()
				if set == nil || opErr != nil {
					continue
				}
				op, err := o.operand(m)
				ops, opErr = append(ops, op), err
			}
		}
	}
	if s.err != nil || set == nil {
		return nil, nil
	}
	variant := set.Lookup(string(name))
	if variant == nil {
		return nil, fmt.Errorf("remote: unknown instruction variant %q", name)
	}
	if opErr != nil {
		return nil, fmt.Errorf("remote: %s: %w", variant.Name, opErr)
	}
	in, err := asmgen.NewInst(variant, ops...)
	if err != nil {
		return nil, fmt.Errorf("remote: %w", err)
	}
	return in, nil
}

// wireOp is an operand object as read, before its registers are looked up.
type wireOp struct {
	reg, base []byte
	addr      uint64
	imm       int64
	hasImm    bool
}

func (s *scanner) op() wireOp {
	var o wireOp
	var seen uint32
	s.expect('{')
	for n := 0; s.more(n, '}'); n++ {
		switch s.key(&seen, opKeys) {
		case "reg":
			o.reg = s.str()
		case "base":
			o.base = s.str()
		case "addr":
			o.addr = s.uint64()
		case "imm":
			o.imm, o.hasImm = s.int64(), true
		}
	}
	return o
}

// operand builds the operand at index i. A non-empty "base" makes a memory
// operand at "addr", else an "imm" an immediate, else a non-empty "reg" a
// register; anything else is an empty operand.
func (o wireOp) operand(i int) (asmgen.Operand, error) {
	switch {
	case len(o.base) > 0:
		r := isa.ParseReg(string(o.base))
		if r == isa.RegNone {
			return asmgen.Operand{}, fmt.Errorf("unknown base register %q", o.base)
		}
		return asmgen.MemOperand(r, o.addr), nil
	case o.hasImm:
		return asmgen.ImmOperand(o.imm), nil
	case len(o.reg) > 0:
		r := isa.ParseReg(string(o.reg))
		if r == isa.RegNone {
			return asmgen.Operand{}, fmt.Errorf("unknown register %q", o.reg)
		}
		return asmgen.RegOperand(r), nil
	}
	return asmgen.Operand{}, fmt.Errorf("operand %d is empty", i+1)
}

// ParseResponse reads the body of a 200 answer to POST /v1/measure. A
// counters entry with more than pipesim.MaxPorts port counts is malformed.
func ParseResponse(body []byte) (MeasureResponse, error) {
	s := scanner{b: body}
	var resp MeasureResponse
	var seen uint32
	s.expect('{')
	for n := 0; s.more(n, '}'); n++ {
		switch s.key(&seen, responseKeys) {
		case "fingerprint":
			resp.Fingerprint = string(s.str())
		case "wireVersion":
			resp.WireVersion = s.int()
		case "counters":
			resp.Counters = make([]Counters, 0, 2) // a measurement's two readings
			s.expect('[')
			for m := 0; s.more(m, ']'); m++ {
				resp.Counters = append(resp.Counters, s.counters())
			}
		case "error":
			resp.Error = string(s.str())
		}
	}
	s.end()
	if s.err != nil {
		return MeasureResponse{}, fmt.Errorf("remote: measure response: %w", s.err)
	}
	return resp, nil
}

func (s *scanner) counters() Counters {
	var c Counters
	var seen uint32
	s.expect('{')
	for n := 0; s.more(n, '}'); n++ {
		switch s.key(&seen, counterKeys) {
		case "cycles":
			c.Cycles = s.int()
		case "portUops":
			c.PortUops = s.ints(pipesim.MaxPorts, "port counts")
		case "totalUops":
			c.TotalUops = s.int()
		case "issuedUops":
			c.IssuedUops = s.int()
		case "elimUops":
			c.ElimUops = s.int()
		}
	}
	return c
}

// scanner reads JSON values from a body. The first syntax error sticks in
// err; after it every read returns a zero value and every loop ends.
type scanner struct {
	b   []byte
	i   int
	err error
}

func (s *scanner) fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf("byte %d: %s", s.i, fmt.Sprintf(format, args...))
	}
}

// skip skips whitespace and returns the next byte, 0 at the end.
func (s *scanner) skip() byte {
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// expect consumes the byte c.
func (s *scanner) expect(c byte) {
	if s.err != nil {
		return
	}
	if s.skip() != c {
		s.fail("want %q", c)
		return
	}
	s.i++
}

// more reports whether an array or object holding n elements so far goes
// on: it consumes the closing byte end and reports false, or consumes the
// comma before every element but the first.
func (s *scanner) more(n int, end byte) bool {
	if s.err != nil {
		return false
	}
	if s.skip() == end {
		s.i++
		return false
	}
	if n > 0 {
		s.expect(',')
	}
	return s.err == nil
}

// end fails unless only whitespace is left.
func (s *scanner) end() {
	if s.skip(); s.i < len(s.b) {
		s.fail("data after the object")
	}
}

// key reads an object key and its colon, and returns the name in names
// that the key equals, marking it in seen. A key outside names, or one seen
// before, is an error.
func (s *scanner) key(seen *uint32, names []string) string {
	k := s.str()
	s.expect(':')
	if s.err != nil {
		return ""
	}
	for i, name := range names {
		if string(k) != name {
			continue
		}
		if *seen&(1<<i) != 0 {
			s.fail("repeated key %q", name)
			return ""
		}
		*seen |= 1 << i
		return name
	}
	s.fail("unknown key %q", k)
	return ""
}

// str reads a string. Without escapes its contents are the body's own
// bytes; a string with escapes is decoded into a new slice.
func (s *scanner) str() []byte {
	if s.err != nil {
		return nil
	}
	if s.skip() != '"' {
		s.fail("want a string")
		return nil
	}
	s.i++
	start := s.i
	for s.i < len(s.b) {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1]
		case c == '\\':
			return s.escaped(append([]byte(nil), s.b[start:s.i]...))
		case c < 0x20:
			s.fail("control byte in a string")
			return nil
		case c < utf8.RuneSelf:
			s.i++
		default:
			if !s.rune() {
				return nil
			}
		}
	}
	s.fail("unterminated string")
	return nil
}

// escaped reads the rest of a string from its first escape, appending the
// decoded contents to out.
func (s *scanner) escaped(out []byte) []byte {
	for s.i < len(s.b) {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return out
		case c == '\\':
			r := s.escape()
			if s.err != nil {
				return nil
			}
			out = utf8.AppendRune(out, r)
		case c < 0x20:
			s.fail("control byte in a string")
			return nil
		case c < utf8.RuneSelf:
			out = append(out, c)
			s.i++
		default:
			start := s.i
			if !s.rune() {
				return nil
			}
			out = append(out, s.b[start:s.i]...)
		}
	}
	s.fail("unterminated string")
	return nil
}

// rune consumes one multi-byte UTF-8 sequence and reports whether it is
// valid.
func (s *scanner) rune() bool {
	r, size := utf8.DecodeRune(s.b[s.i:])
	if r == utf8.RuneError && size == 1 {
		s.fail("invalid UTF-8 in a string")
		return false
	}
	s.i += size
	return true
}

// escape reads one escape sequence and returns its rune. A \u escape of a
// surrogate must be the first half of a pair that the next escape ends.
func (s *scanner) escape() rune {
	if s.i+1 >= len(s.b) {
		s.fail("unterminated string")
		return 0
	}
	c := s.b[s.i+1]
	s.i += 2
	switch c {
	case '"', '\\', '/':
		return rune(c)
	case 'b':
		return '\b'
	case 'f':
		return '\f'
	case 'n':
		return '\n'
	case 'r':
		return '\r'
	case 't':
		return '\t'
	case 'u':
		r := s.hex4()
		if !utf16.IsSurrogate(r) {
			return r
		}
		if bytes.HasPrefix(s.b[s.i:], []byte(`\u`)) {
			s.i += 2
			if pair := utf16.DecodeRune(r, s.hex4()); pair != utf8.RuneError {
				return pair
			}
		}
		s.fail("lone surrogate in a string")
		return 0
	}
	s.i -= 2
	s.fail("bad escape in a string")
	return 0
}

// hex4 reads the four hex digits of a \u escape.
func (s *scanner) hex4() rune {
	if s.i+4 > len(s.b) {
		s.fail("short \\u escape")
		return 0
	}
	var r rune
	for _, c := range s.b[s.i : s.i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			s.fail("bad \\u escape")
			return 0
		}
		r = r<<4 | rune(c)
	}
	s.i += 4
	return r
}

// digits reads an integer: an optional minus sign, then digits without a
// leading zero, and no fraction or exponent. It returns the sign and the
// magnitude, which must fit a uint64.
func (s *scanner) digits() (neg bool, mag uint64) {
	if s.err != nil {
		return false, 0
	}
	if s.skip() == '-' {
		neg = true
		s.i++
	}
	b, start := s.b, s.i
	i := start
	for ; i < len(b); i++ {
		d := uint64(b[i] - '0')
		if d > 9 {
			break
		}
		if mag >= math.MaxUint64/10 && mag > (math.MaxUint64-d)/10 {
			s.fail("number out of range")
			return false, 0
		}
		mag = mag*10 + d
	}
	s.i = i
	switch {
	case i == start:
		s.fail("want an integer")
	case b[start] == '0' && i-start > 1:
		s.fail("leading zero in a number")
	case i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E'):
		s.fail("want an integer")
	}
	return neg, mag
}

// signed reads an integer within [lo, hi].
func (s *scanner) signed(lo, hi int64) int64 {
	neg, mag := s.digits()
	if neg && mag > uint64(-(lo+1))+1 || !neg && mag > uint64(hi) {
		s.fail("number out of range")
		return 0
	}
	if neg {
		return -int64(mag)
	}
	return int64(mag)
}

func (s *scanner) int() int     { return int(s.signed(math.MinInt, math.MaxInt)) }
func (s *scanner) int64() int64 { return s.signed(math.MinInt64, math.MaxInt64) }
func (s *scanner) uint64() uint64 {
	neg, mag := s.digits()
	if neg {
		s.fail("negative number")
		return 0
	}
	return mag
}

// ints reads an array of at most limit integers into a new slice, sized by
// the commas before its first ']' (an integer holds neither).
func (s *scanner) ints(limit int, what string) []int {
	s.expect('[')
	if s.err != nil {
		return nil
	}
	n := 1
	if end := bytes.IndexByte(s.b[s.i:], ']'); end >= 0 {
		n += bytes.Count(s.b[s.i:s.i+end], []byte{','})
	}
	if n > limit {
		s.fail("more than %d %s", limit, what)
		return nil
	}
	out := make([]int, 0, n)
	if s.skip() == ']' {
		s.i++
		return out
	}
	for s.err == nil {
		out = append(out, s.int())
		switch s.skip() {
		case ',':
			s.i++
		case ']':
			s.i++
			return out
		default:
			s.fail("want ',' or ']'")
		}
	}
	return nil
}
