// Package xmlout writes and reads the machine-readable XML result format of
// the characterization tool (Section 6.4 of the paper): for every instruction
// variant of every measured microarchitecture it records the µop count, the
// port usage, the operand-pair latencies and the throughput, both as measured
// on the (simulated) hardware and, where available, as reported by the IACA
// models.
//
// The struct tags of the document model define the format, and Read decodes
// it with encoding/xml. Write does not use encoding/xml's reflective
// encoder, which took six times the time and twenty times the allocations
// to render a generation: it appends the document into one buffer by hand.
// Its contract is that its bytes equal xml.Header followed by what an
// encoding/xml Encoder with Indent("", "  ") writes for the same document,
// for every document, strings that need escaping, invalid UTF-8 and every
// float included. That encoder therefore lives on in the tests, as the
// reference Write is held to (TestWriteMatchesEncodingXML, FuzzWrite): a
// tag edited without the writer fails there.
//
//uopslint:deterministic
package xmlout

import (
	"encoding/xml"
	"fmt"
	"io"

	"uopsinfo/internal/core"
	"uopsinfo/internal/iaca"
)

// Document is the root of the results file. The document model doubles as
// the characterization service's response body: the JSON tags define the
// JSON rendering of the same data the XML tags define for the results file.
type Document struct {
	XMLName       xml.Name       `xml:"uopsInfo" json:"-"`
	Architectures []Architecture `xml:"architecture" json:"architectures"`
}

// Architecture holds the results for one microarchitecture generation.
type Architecture struct {
	Name         string        `xml:"name,attr" json:"name"`
	Instructions []Instruction `xml:"instruction" json:"instructions"`
}

// Instruction holds the results for one instruction variant.
type Instruction struct {
	Name     string    `xml:"name,attr" json:"name"`
	Mnemonic string    `xml:"asm,attr" json:"asm"`
	Skipped  string    `xml:"skipped,attr,omitempty" json:"skipped,omitempty"`
	Measured *Measured `xml:"measurement,omitempty" json:"measurement,omitempty"`
	IACA     []IACAOut `xml:"iaca,omitempty" json:"iaca,omitempty"`
}

// Measured is the hardware-measurement part of an instruction's results.
type Measured struct {
	Uops       float64   `xml:"uops,attr" json:"uops"`
	UopsIssued float64   `xml:"uopsIssued,attr" json:"uopsIssued"`
	Ports      string    `xml:"ports,attr,omitempty" json:"ports,omitempty"`
	TPMeasured float64   `xml:"tpMeasured,attr,omitempty" json:"tpMeasured,omitempty"`
	TPComputed float64   `xml:"tpComputed,attr,omitempty" json:"tpComputed,omitempty"`
	TPFast     float64   `xml:"tpFastValues,attr,omitempty" json:"tpFastValues,omitempty"`
	Latencies  []Latency `xml:"latency" json:"latency,omitempty"`
}

// Latency is one operand-pair latency entry.
type Latency struct {
	Source     string  `xml:"startOp,attr" json:"startOp"`
	Dest       string  `xml:"targetOp,attr" json:"targetOp"`
	Cycles     float64 `xml:"cycles,attr" json:"cycles"`
	UpperBound bool    `xml:"upperBound,attr,omitempty" json:"upperBound,omitempty"`
	SameReg    bool    `xml:"sameReg,attr,omitempty" json:"sameReg,omitempty"`
	FastValues float64 `xml:"cyclesFastValues,attr,omitempty" json:"cyclesFastValues,omitempty"`
	Notes      string  `xml:"notes,attr,omitempty" json:"notes,omitempty"`
}

// IACAOut is the per-version IACA view of an instruction.
type IACAOut struct {
	Version string `xml:"version,attr" json:"version"`
	Uops    int    `xml:"uops,attr" json:"uops"`
	Ports   string `xml:"ports,attr" json:"ports"`
}

// Single wraps one architecture in a Document, the unit the service renders
// for a single-generation request.
func Single(a Architecture) *Document {
	return &Document{Architectures: []Architecture{a}}
}

// FromArchResult converts a characterization result into the XML document
// model. iacaModels may be nil; otherwise each analyzer contributes a
// per-version entry for every instruction it knows. The instructions,
// measurements, latencies and IACA entries each share one allocation; a
// slice with no elements is nil.
func FromArchResult(res *core.ArchResult, iacaModels []*iaca.Analyzer) Architecture {
	names := res.Names()
	if len(names) == 0 {
		return Architecture{Name: res.Arch}
	}
	nLat := 0
	for _, name := range names {
		nLat += len(res.Results[name].Latency.Pairs)
	}
	insts := make([]Instruction, len(names))
	ms := make([]Measured, len(names))
	lats := make([]Latency, 0, nLat)
	iacas := make([]IACAOut, 0, len(names)*len(iacaModels))
	for i, name := range names {
		r := res.Results[name]
		m := &ms[i]
		*m = Measured{
			Uops:       r.Uops,
			UopsIssued: r.UopsIssued,
			TPMeasured: r.Throughput.Measured,
			TPComputed: r.Throughput.Computed,
			TPFast:     r.Throughput.FastValueMeasured,
		}
		if len(r.Ports) > 0 {
			m.Ports = r.Ports.String()
		}
		first := len(lats)
		for _, p := range r.Latency.Pairs {
			lats = append(lats, Latency{
				Source:     p.SourceName,
				Dest:       p.DestName,
				Cycles:     p.Cycles,
				UpperBound: p.UpperBound,
				SameReg:    p.SameRegister,
				FastValues: p.FastValueCycles,
				Notes:      p.Notes,
			})
		}
		if len(lats) > first {
			m.Latencies = lats[first:len(lats):len(lats)]
		}
		inst := &insts[i]
		*inst = Instruction{Name: r.Name, Mnemonic: r.Mnemonic, Skipped: r.Skipped, Measured: m}
		first = len(iacas)
		for _, a := range iacaModels {
			if e, usage, ok := a.Lookup(name); ok {
				iacas = append(iacas, IACAOut{Version: string(a.Version()), Uops: e.Uops, Ports: usage})
			}
		}
		if len(iacas) > first {
			inst.IACA = iacas[first:len(iacas):len(iacas)]
		}
	}
	return Architecture{Name: res.Arch, Instructions: insts}
}

// Read parses a document produced by Write.
func Read(r io.Reader) (*Document, error) {
	var doc Document
	if err := xml.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("xmlout: decoding results: %w", err)
	}
	return &doc, nil
}

// Lookup returns the instruction entry for a variant in an architecture, or
// nil.
func (a *Architecture) Lookup(name string) *Instruction {
	for i := range a.Instructions {
		if a.Instructions[i].Name == name {
			return &a.Instructions[i]
		}
	}
	return nil
}
