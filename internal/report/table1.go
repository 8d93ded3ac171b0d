// Package report regenerates the tables and case studies of the paper's
// evaluation (Section 7): Table 1 (per-generation instruction-variant counts
// and the agreement between hardware measurements and IACA), the Section 7.2
// discrepancy analysis, and the Section 7.3 case studies.
package report

import (
	"fmt"
	"strings"

	"uopsinfo/internal/core"
	"uopsinfo/internal/engine"
	"uopsinfo/internal/iaca"
	"uopsinfo/internal/isa"
	"uopsinfo/internal/uarch"
)

// Table1Row is one row of Table 1.
type Table1Row struct {
	Arch         string
	Processor    string
	NumVariants  int
	IACAVersions string
	// Compared is the number of instruction variants included in the
	// comparison (REP/LOCK-prefixed and unmeasurable variants are excluded,
	// as in the paper).
	Compared int
	// UopsMatchPct is the percentage of compared variants for which at least
	// one IACA version reports the same µop count as the hardware
	// measurement.
	UopsMatchPct float64
	// PortsMatchPct is the percentage of µop-matching variants for which the
	// measured port usage equals an IACA version's port usage.
	PortsMatchPct float64
}

// Table1Options controls how much of the instruction set is compared and how
// the comparison runs.
type Table1Options struct {
	// SampleEvery compares every n-th eligible variant (1 = all). Values
	// below 1 are treated as 1.
	SampleEvery int
	// Generations restricts the table to the given generations (all nine if
	// empty).
	Generations []uarch.Generation
	// Progress, if non-nil, is called per generation. With Workers > 1 the
	// calls come from concurrent goroutines in completion-dependent order.
	Progress func(arch string)
	// Context supplies the characterization stacks (and thereby the engine's
	// worker budget and persistent store). Nil builds a default context.
	Context *Context
	// Workers bounds how many generations are compared concurrently; the
	// rows come out in generation order regardless. <= 1 runs sequentially.
	Workers int
}

// comparable reports whether a variant takes part in the Table 1 comparison:
// the paper ignores REP-prefixed instructions (variable µop count) and
// LOCK-prefixed instructions.
func comparable(in *isa.Instr) bool {
	if in.HasRep || in.HasLock {
		return false
	}
	if in.IsSystem || in.IsSerializing || in.ControlFlow {
		return false
	}
	return true
}

// BuildTable1Row builds one row of Table 1 for a generation by characterizing
// the (sampled) instruction set on the simulated hardware and comparing µop
// counts and port usage against every IACA version that supports the
// generation.
func BuildTable1Row(arch *uarch.Arch, opts Table1Options) (Table1Row, error) {
	row := Table1Row{
		Arch:         arch.Name(),
		Processor:    arch.Gen().Processor(),
		NumVariants:  arch.InstrSet().Len(),
		IACAVersions: iaca.DescribeVersions(arch.Gen()),
	}
	versions := iaca.SupportedVersions(arch.Gen())
	if len(versions) == 0 {
		return row, nil
	}
	var analyzers []*iaca.Analyzer
	for _, v := range versions {
		a, err := iaca.New(v, arch)
		if err != nil {
			return row, err
		}
		analyzers = append(analyzers, a)
	}

	every := opts.SampleEvery
	if every < 1 {
		every = 1
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = NewContext()
	}
	c, err := ctx.Char(arch.Gen())
	if err != nil {
		return row, err
	}
	uopsMatch, portsChecked, portsMatch := 0, 0, 0
	idx := 0
	for _, in := range arch.InstrSet().Instrs() {
		if !comparable(in) {
			continue
		}
		idx++
		if (idx-1)%every != 0 {
			continue
		}
		measUops, _, err := c.MeasuredUops(in)
		if err != nil {
			continue
		}
		measured := int(measUops + 0.5)
		row.Compared++

		// µop count agreement: at least one version reports the measured
		// count.
		uopsOK := false
		for _, a := range analyzers {
			if e, ok := a.Entry(in.Name); ok && e.Uops == measured {
				uopsOK = true
				break
			}
		}
		if !uopsOK {
			continue
		}
		uopsMatch++

		// Port usage agreement among the µop-matching variants.
		pu, err := c.PortUsage(in, 0)
		if err != nil {
			continue
		}
		portsChecked++
		measuredUsage := roundUsage(pu)
		for _, a := range analyzers {
			if e, ok := a.Entry(in.Name); ok && iaca.UsageEqual(e.Usage, measuredUsage) {
				portsMatch++
				break
			}
		}
	}
	if row.Compared > 0 {
		row.UopsMatchPct = 100 * float64(uopsMatch) / float64(row.Compared)
	}
	if portsChecked > 0 {
		row.PortsMatchPct = 100 * float64(portsMatch) / float64(portsChecked)
	}
	return row, nil
}

// roundUsage converts a measured port usage into integer µop counts.
func roundUsage(pu core.PortUsage) map[string]int {
	out := make(map[string]int)
	for k, v := range pu {
		n := int(v + 0.5)
		if n > 0 {
			out[k] = n
		}
	}
	return out
}

// BuildTable1 builds all requested rows. With opts.Workers > 1 the
// generations are compared concurrently (after prewarming their
// characterizers under the engine's shared worker budget); the rows are
// returned in generation order and are identical to a sequential build.
func BuildTable1(opts Table1Options) ([]Table1Row, error) {
	gens := opts.Generations
	if len(gens) == 0 {
		for _, a := range uarch.All() {
			gens = append(gens, a.Gen())
		}
	}
	if opts.Context == nil {
		opts.Context = NewContext()
	}
	if opts.Workers <= 1 {
		var rows []Table1Row
		for _, g := range gens {
			arch := uarch.Get(g)
			if opts.Progress != nil {
				opts.Progress(arch.Name())
			}
			row, err := BuildTable1Row(arch, opts)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
		return rows, nil
	}

	// Generations without IACA support never build a characterization stack
	// (their rows are header-only), so only the rest is prewarmed. The
	// fan-out runs over unique generations: a characterizer owns one
	// stateful simulator, so a duplicated generation must not be measured
	// from two goroutines.
	var warm, unique []uarch.Generation
	index := make(map[uarch.Generation]int, len(gens))
	for _, g := range gens {
		if _, ok := index[g]; ok {
			continue
		}
		index[g] = len(unique)
		unique = append(unique, g)
		if len(iaca.SupportedVersions(g)) > 0 {
			warm = append(warm, g)
		}
	}
	if err := opts.Context.Prewarm(warm); err != nil {
		return nil, err
	}

	uniqueRows := make([]Table1Row, len(unique))
	err := engine.Fanout(opts.Workers, len(unique), func(i, _ int) (err error) {
		arch := uarch.Get(unique[i])
		if opts.Progress != nil {
			opts.Progress(arch.Name())
		}
		uniqueRows[i], err = BuildTable1Row(arch, opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Table1Row, len(gens))
	for i, g := range gens {
		rows[i] = uniqueRows[index[g]]
	}
	return rows, nil
}

// FormatTable1 renders the rows as a text table resembling Table 1 of the
// paper.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-18s %8s  %-9s %9s  %7s  %7s\n",
		"Architecture", "Processor", "#Instr.", "IACA", "Compared", "µops", "Ports")
	for _, r := range rows {
		uops, ports := "-", "-"
		if r.Compared > 0 {
			uops = fmt.Sprintf("%.2f%%", r.UopsMatchPct)
			ports = fmt.Sprintf("%.2f%%", r.PortsMatchPct)
		}
		fmt.Fprintf(&b, "%-14s %-18s %8d  %-9s %9d  %7s  %7s\n",
			r.Arch, r.Processor, r.NumVariants, r.IACAVersions, r.Compared, uops, ports)
	}
	return b.String()
}
