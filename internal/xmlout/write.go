package xmlout

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strconv"
	"unicode/utf8"
)

// chunkSize is how many bytes Write gathers before it hands them to its
// writer.
const chunkSize = 32 << 10

// indent is a line break followed by the indentation of the deepest
// element, a latency at depth 4; an element at depth d starts with its
// first 1+2d bytes.
const indent = "\n        "

// Write serializes the document as indented XML, after sorting its
// architectures by name. The bytes are those of encoding/xml's encoder with
// Indent("", "  ") after xml.Header (see the package doc).
func Write(w io.Writer, doc *Document) error {
	sort.Slice(doc.Architectures, func(i, j int) bool {
		return doc.Architectures[i].Name < doc.Architectures[j].Name
	})
	// The buffer is flushed between instructions, so it has room for the
	// one that crosses chunkSize.
	e := encoder{w: w, b: make([]byte, 0, chunkSize+chunkSize/4)}
	e.b = append(e.b, xml.Header...)
	e.b = append(e.b, "<uopsInfo>"...)
	for i := range doc.Architectures {
		if err := e.architecture(&doc.Architectures[i]); err != nil {
			return err
		}
	}
	e.end(0, "uopsInfo", len(doc.Architectures) > 0)
	return e.flush()
}

// encoder appends the document to b and hands b to w whenever it holds a
// chunk.
type encoder struct {
	w io.Writer
	b []byte
}

func (e *encoder) flush() error {
	_, err := e.w.Write(e.b)
	e.b = e.b[:0]
	if err != nil {
		return fmt.Errorf("xmlout: writing results: %w", err)
	}
	return nil
}

func (e *encoder) architecture(a *Architecture) error {
	e.start(1, "architecture")
	e.attr("name", a.Name)
	e.b = append(e.b, '>')
	for i := range a.Instructions {
		e.instruction(&a.Instructions[i])
		if len(e.b) >= chunkSize {
			if err := e.flush(); err != nil {
				return err
			}
		}
	}
	e.end(1, "architecture", len(a.Instructions) > 0)
	return nil
}

// instruction appends one instruction element. The attributes of each
// element follow its struct's field order, and an attribute tagged
// omitempty is left out exactly when encoding/xml leaves it out: at the
// empty string, zero (negative zero included, NaN not) or false.
func (e *encoder) instruction(in *Instruction) {
	e.start(2, "instruction")
	e.attr("name", in.Name)
	e.attr("asm", in.Mnemonic)
	if in.Skipped != "" {
		e.attr("skipped", in.Skipped)
	}
	e.b = append(e.b, '>')
	if m := in.Measured; m != nil {
		e.start(3, "measurement")
		e.float("uops", m.Uops)
		e.float("uopsIssued", m.UopsIssued)
		if m.Ports != "" {
			e.attr("ports", m.Ports)
		}
		if m.TPMeasured != 0 {
			e.float("tpMeasured", m.TPMeasured)
		}
		if m.TPComputed != 0 {
			e.float("tpComputed", m.TPComputed)
		}
		if m.TPFast != 0 {
			e.float("tpFastValues", m.TPFast)
		}
		e.b = append(e.b, '>')
		for i := range m.Latencies {
			l := &m.Latencies[i]
			e.start(4, "latency")
			e.attr("startOp", l.Source)
			e.attr("targetOp", l.Dest)
			e.float("cycles", l.Cycles)
			if l.UpperBound {
				e.b = append(e.b, ` upperBound="true"`...)
			}
			if l.SameReg {
				e.b = append(e.b, ` sameReg="true"`...)
			}
			if l.FastValues != 0 {
				e.float("cyclesFastValues", l.FastValues)
			}
			if l.Notes != "" {
				e.attr("notes", l.Notes)
			}
			e.b = append(e.b, "></latency>"...)
		}
		e.end(3, "measurement", len(m.Latencies) > 0)
	}
	for i := range in.IACA {
		x := &in.IACA[i]
		e.start(3, "iaca")
		e.attr("version", x.Version)
		e.key("uops")
		e.b = strconv.AppendInt(e.b, int64(x.Uops), 10)
		e.b = append(e.b, '"')
		e.attr("ports", x.Ports)
		e.b = append(e.b, "></iaca>"...)
	}
	e.end(2, "instruction", in.Measured != nil || len(in.IACA) > 0)
}

// start opens a start tag on a line of its own, indented two spaces per
// level of depth.
func (e *encoder) start(depth int, name string) {
	e.b = append(e.b, indent[:1+2*depth]...)
	e.b = append(e.b, '<')
	e.b = append(e.b, name...)
}

// end closes the element started at depth: right after its start tag when
// it has no children, otherwise on a line of its own.
func (e *encoder) end(depth int, name string, children bool) {
	if children {
		e.b = append(e.b, indent[:1+2*depth]...)
	}
	e.b = append(e.b, "</"...)
	e.b = append(e.b, name...)
	e.b = append(e.b, '>')
}

// key appends an attribute's name and the opening quote of its value.
func (e *encoder) key(name string) {
	e.b = append(e.b, ' ')
	e.b = append(e.b, name...)
	e.b = append(e.b, `="`...)
}

func (e *encoder) attr(name, value string) {
	e.key(name)
	e.b = appendEscaped(e.b, value)
	e.b = append(e.b, '"')
}

// float appends a float attribute formatted as encoding/xml formats a
// float64.
func (e *encoder) float(name string, v float64) {
	e.key(name)
	e.b = strconv.AppendFloat(e.b, v, 'g', -1, 64)
	e.b = append(e.b, '"')
}

// verbatim marks the bytes that encoding/xml copies into an attribute value
// unchanged wherever they stand: printable ASCII other than the five markup
// characters.
var verbatim = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = true
	}
	for _, c := range `"'&<>` {
		t[c] = false
	}
	return t
}()

// appendEscaped appends s escaped as encoding/xml escapes an attribute
// value: the markup characters, tab, line feed and carriage return become
// character references, and a byte of invalid UTF-8 or a rune outside
// XML's character range becomes U+FFFD. A value with no byte that needs
// any of this is copied as is.
func appendEscaped(b []byte, s string) []byte {
	i := 0
	for i < len(s) && verbatim[s[i]] {
		i++
	}
	if i == len(s) {
		return append(b, s...)
	}
	last := 0
	for i < len(s) {
		r, width := utf8.DecodeRuneInString(s[i:])
		i += width
		var esc string
		switch r {
		case '"':
			esc = "&#34;"
		case '\'':
			esc = "&#39;"
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\t':
			esc = "&#x9;"
		case '\n':
			esc = "&#xA;"
		case '\r':
			esc = "&#xD;"
		default:
			if !inCharRange(r) || (r == utf8.RuneError && width == 1) {
				esc = "\uFFFD"
				break
			}
			continue
		}
		b = append(b, s[last:i-width]...)
		b = append(b, esc...)
		last = i
	}
	return append(b, s[last:]...)
}

// inCharRange reports whether XML allows the rune in a document.
func inCharRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}
