// Package seqfix exercises the seqretain analyzer: Run/RunCopies/Measure methods
// that retain their sequence slice argument are findings; copies and
// other methods are clean.
package seqfix

// Inst stands in for one instruction of a measurement sequence.
type Inst struct{ Op string }

// Retainer stores the sequence it is handed, in several shapes.
type Retainer struct {
	last    []*Inst
	history [][]*Inst
}

var lastGlobal []*Inst

// Run retains code directly, resliced, and into a container element.
func (r *Retainer) Run(code []*Inst) error {
	r.last = code // want `Run stores its sequence parameter code in field last`
	if len(code) > 1 {
		r.last = code[:1] // want `Run stores its sequence parameter code in field last`
	}
	r.history[0] = code // want `Run stores its sequence parameter code in an element of field history`
	lastGlobal = code   // want `Run stores its sequence parameter code in package-level variable lastGlobal`
	return nil
}

// RunCopies is covered too: the harness hands it the caller's kernel.
func (r *Retainer) RunCopies(code []*Inst, copies ...int) error {
	r.last = code // want `RunCopies stores its sequence parameter code in field last`
	return nil
}

// Copier copies before retaining: clean.
type Copier struct {
	last []*Inst
}

// Run copies the sequence, which breaks the aliasing.
func (c *Copier) Run(code []*Inst) error {
	c.last = append(c.last[:0], code...)
	own := make([]*Inst, len(code))
	copy(own, code)
	c.last = own
	return nil
}

// Helper is not named Run, RunCopies or Measure, so the contract does not apply.
func (r *Retainer) Helper(code []*Inst) {
	r.last = code
}
