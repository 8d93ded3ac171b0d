package report

import (
	"fmt"
	"strings"
	"sync"

	"uopsinfo/internal/core"
	"uopsinfo/internal/engine"
	"uopsinfo/internal/fog"
	"uopsinfo/internal/iaca"
	"uopsinfo/internal/isa"
	"uopsinfo/internal/uarch"
)

// CaseStudy is one reproduced result from Section 5 or Section 7 of the
// paper: an identifier, a title, and a list of labelled findings.
type CaseStudy struct {
	ID    string
	Title string
	Rows  []CaseStudyRow
}

// CaseStudyRow is one labelled finding.
type CaseStudyRow struct {
	Label string
	Value string
}

func (cs *CaseStudy) add(label, format string, args ...interface{}) {
	cs.Rows = append(cs.Rows, CaseStudyRow{Label: label, Value: fmt.Sprintf(format, args...)})
}

// Format renders the case study as text.
func (cs *CaseStudy) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] %s\n", cs.ID, cs.Title)
	for _, r := range cs.Rows {
		fmt.Fprintf(&b, "  %-52s %s\n", r.Label+":", r.Value)
	}
	return b.String()
}

// Context is the report layer's view of the characterization engine: it
// hands out the per-generation characterizers and prior-work baselines the
// case studies share (discovering blocking instructions is the expensive
// part, which the engine parallelizes and caches).
type Context struct {
	eng *engine.Engine

	mu        sync.Mutex
	baselines map[uarch.Generation]*fog.Baseline
}

// NewContext returns a context on a default engine (no persistent store,
// default worker budget).
func NewContext() *Context {
	return NewContextWith(engine.Default())
}

// NewContextWith returns a context on the given engine, inheriting its
// worker budget and persistent store.
func NewContextWith(e *engine.Engine) *Context {
	return &Context{eng: e, baselines: make(map[uarch.Generation]*fog.Baseline)}
}

// Engine returns the underlying characterization engine.
func (ctx *Context) Engine() *engine.Engine { return ctx.eng }

// Char returns (building if necessary) the characterizer for a generation,
// with its blocking set restored from the engine's store or discovered in
// parallel.
func (ctx *Context) Char(gen uarch.Generation) (*core.Characterizer, error) {
	return ctx.eng.Characterizer(gen)
}

// Prewarm builds the characterizers for the given generations concurrently
// under the engine's shared worker budget.
func (ctx *Context) Prewarm(gens []uarch.Generation) error {
	return ctx.eng.Prewarm(gens)
}

// Baseline returns (building if necessary) the prior-work baseline for a
// generation. It uses its own runner instance so divider-value switching in
// the characterizer does not interfere. It fails only if the engine's
// backend cannot build a runner for the generation.
func (ctx *Context) Baseline(gen uarch.Generation) (*fog.Baseline, error) {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	if b, ok := ctx.baselines[gen]; ok {
		return b, nil
	}
	h, err := ctx.eng.Harness(gen)
	if err != nil {
		return nil, err
	}
	b := fog.New(h)
	ctx.baselines[gen] = b
	return b, nil
}

// CaseStudyGenerations lists the generations the case studies measure on, so
// commands can prewarm their characterizers concurrently before running the
// studies.
func CaseStudyGenerations() []uarch.Generation {
	return []uarch.Generation{
		uarch.Nehalem, uarch.Westmere, uarch.SandyBridge,
		uarch.IvyBridge, uarch.Haswell, uarch.Skylake,
	}
}

func (ctx *Context) variant(gen uarch.Generation, name string) (*isa.Instr, error) {
	in := uarch.Get(gen).InstrSet().Lookup(name)
	if in == nil {
		return nil, fmt.Errorf("report: %s has no variant %q", gen, name)
	}
	return in, nil
}

// lookupPair returns the (source, dest) latency, or -1 if missing.
func lookupPair(lat core.LatencyResult, s, d int) float64 {
	if p, ok := lat.Lookup(s, d); ok {
		return p.Cycles
	}
	return -1
}

// AESLatencyStudy reproduces Section 7.3.1: the per-operand-pair latencies of
// AESDEC across Westmere, Sandy Bridge, Ivy Bridge, Haswell and Skylake,
// which reveal the undocumented 2-µop split on Sandy Bridge and Ivy Bridge.
func AESLatencyStudy(ctx *Context) (*CaseStudy, error) {
	cs := &CaseStudy{ID: "7.3.1", Title: "AESDEC XMM1, XMM2: latency per operand pair"}
	gens := []uarch.Generation{uarch.Westmere, uarch.SandyBridge, uarch.IvyBridge, uarch.Haswell, uarch.Skylake}
	for _, gen := range gens {
		c, err := ctx.Char(gen)
		if err != nil {
			return nil, err
		}
		in, err := ctx.variant(gen, "AESDEC_XMM_XMM")
		if err != nil {
			return nil, err
		}
		lat, err := c.Latency(in)
		if err != nil {
			return nil, err
		}
		uops, _, err := c.MeasuredUops(in)
		if err != nil {
			return nil, err
		}
		cs.add(gen.String(),
			"uops=%.0f  lat(XMM1->XMM1)=%.1f  lat(XMM2->XMM1)=%.1f",
			uops, lookupPair(lat, 0, 0), lookupPair(lat, 1, 0))
	}
	cs.add("paper (Sandy/Ivy Bridge)", "uops=2  lat(XMM1->XMM1)=8  lat(XMM2->XMM1)=~1.25")
	cs.add("paper (Haswell)", "uops=1  both pairs 7 cycles")
	cs.add("paper (Westmere)", "uops=3  both pairs 6 cycles")
	return cs, nil
}

// SHLDStudy reproduces Section 7.3.2: the operand-pair latencies of
// SHLD r,r,imm on Nehalem and Skylake, together with the two prior-work
// measurement conventions that explain the disagreement between published
// numbers.
func SHLDStudy(ctx *Context) (*CaseStudy, error) {
	cs := &CaseStudy{ID: "7.3.2", Title: "SHLD R1, R2, imm: why prior publications disagree"}
	for _, gen := range []uarch.Generation{uarch.Nehalem, uarch.Skylake} {
		c, err := ctx.Char(gen)
		if err != nil {
			return nil, err
		}
		b, err := ctx.Baseline(gen)
		if err != nil {
			return nil, err
		}
		in, err := ctx.variant(gen, "SHLD_R64_R64_I8")
		if err != nil {
			return nil, err
		}
		lat, err := c.Latency(in)
		if err != nil {
			return nil, err
		}
		sameReg := -1.0
		for _, p := range lat.Pairs {
			if p.SameRegister && p.Source == 1 && p.Dest == 0 {
				sameReg = p.Cycles
			}
		}
		fogLat, err := b.LatencyDistinctRegisters(in)
		if err != nil {
			return nil, err
		}
		granlundLat, err := b.LatencySameRegister(in)
		if err != nil {
			return nil, err
		}
		cs.add(gen.String(),
			"lat(R1->R1)=%.1f  lat(R2->R1)=%.1f  same-register=%.1f",
			lookupPair(lat, 0, 0), lookupPair(lat, 1, 0), sameReg)
		cs.add(gen.String()+" prior-work conventions",
			"distinct-regs (Fog)=%.1f  same-reg (Granlund/AIDA64)=%.1f", fogLat, granlundLat)
	}
	cs.add("paper (Nehalem)", "lat(R1,R1)=3 (Fog's 3), lat(R2,R1)=4 (manual/Granlund/IACA/AIDA64's 4)")
	cs.add("paper (Skylake)", "3 cycles with distinct registers, 1 cycle with the same register")
	return cs, nil
}

// MOVQ2DQStudy reproduces Section 7.3.3: the port usage of MOVQ2DQ on
// Skylake as inferred by the blocking-instruction algorithm, by the
// isolation-based prior-work approach, and as claimed by the IACA models.
func MOVQ2DQStudy(ctx *Context) (*CaseStudy, error) {
	cs := &CaseStudy{ID: "7.3.3", Title: "MOVQ2DQ on Skylake: port usage"}
	gen := uarch.Skylake
	c, err := ctx.Char(gen)
	if err != nil {
		return nil, err
	}
	b, err := ctx.Baseline(gen)
	if err != nil {
		return nil, err
	}
	in, err := ctx.variant(gen, "MOVQ2DQ_XMM_MM")
	if err != nil {
		return nil, err
	}
	pu, err := c.PortUsage(in, 2)
	if err != nil {
		return nil, err
	}
	iso, err := b.PortUsageIsolation(in)
	if err != nil {
		return nil, err
	}
	cs.add("blocking-instruction algorithm (this work)", "%s", pu)
	cs.add("isolation-based attribution (Fog-style)", "%s", iso)
	for _, v := range iaca.SupportedVersions(gen) {
		a, err := iaca.New(v, uarch.Get(gen))
		if err != nil {
			return nil, err
		}
		if e, ok := a.Entry(in.Name); ok {
			cs.add(fmt.Sprintf("IACA %s", v), "%s", e.UsageString())
		}
	}
	cs.add("paper", "1*p0+1*p015 measured; Fog-style observation suggests 1*p0+1*p15; IACA/LLVM report 2*p5")
	return cs, nil
}

// MOVDQ2QStudy reproduces Section 7.3.4: MOVDQ2Q on Haswell and Sandy Bridge.
func MOVDQ2QStudy(ctx *Context) (*CaseStudy, error) {
	cs := &CaseStudy{ID: "7.3.4", Title: "MOVDQ2Q: port usage on Haswell and Sandy Bridge"}
	for _, gen := range []uarch.Generation{uarch.Haswell, uarch.SandyBridge} {
		c, err := ctx.Char(gen)
		if err != nil {
			return nil, err
		}
		b, err := ctx.Baseline(gen)
		if err != nil {
			return nil, err
		}
		in, err := ctx.variant(gen, "MOVDQ2Q_MM_XMM")
		if err != nil {
			return nil, err
		}
		pu, err := c.PortUsage(in, 2)
		if err != nil {
			return nil, err
		}
		iso, err := b.PortUsageIsolation(in)
		if err != nil {
			return nil, err
		}
		cs.add(gen.String()+" (this work)", "%s", pu)
		cs.add(gen.String()+" (isolation-based)", "%s", iso)
		for _, v := range iaca.SupportedVersions(gen) {
			a, err := iaca.New(v, uarch.Get(gen))
			if err != nil {
				return nil, err
			}
			if e, ok := a.Entry(in.Name); ok {
				cs.add(fmt.Sprintf("%s (IACA %s)", gen, v), "%s", e.UsageString())
			}
		}
	}
	cs.add("paper (Haswell)", "1*p5+1*p015; IACA 2.1 agrees, IACA>=2.2 and LLVM report 1*p01+1*p015, Fog reports 1*p01+1*p5")
	cs.add("paper (Sandy Bridge)", "1*p015+1*p5; Fog reports 2*p015")
	return cs, nil
}

// MultiLatencyStudy reproduces Section 7.3.5: instructions whose latency
// differs between operand pairs.
func MultiLatencyStudy(ctx *Context) (*CaseStudy, error) {
	cs := &CaseStudy{ID: "7.3.5", Title: "Instructions with multiple latencies (Skylake)"}
	gen := uarch.Skylake
	c, err := ctx.Char(gen)
	if err != nil {
		return nil, err
	}
	names := []string{"SHLD_R64_R64_I8", "SHL_R64_I8", "IMUL_R64_R64", "PSHUFB_XMM_XMM", "ADD_R64_M64", "XADD_R64_R64"}
	found := 0
	for _, name := range names {
		in, err := ctx.variant(gen, name)
		if err != nil {
			return nil, err
		}
		lat, err := c.Latency(in)
		if err != nil {
			return nil, err
		}
		min, max := -1.0, -1.0
		for _, p := range lat.Pairs {
			if p.SameRegister || p.Cycles <= 0 {
				continue
			}
			if min < 0 || p.Cycles < min {
				min = p.Cycles
			}
			if p.Cycles > max {
				max = p.Cycles
			}
		}
		distinct := max-min >= 0.5
		if distinct {
			found++
		}
		cs.add(name, "min pair latency=%.1f  max pair latency=%.1f  multiple latencies=%v", min, max, distinct)
	}
	cs.add("summary", "%d of %d sampled instructions show operand-pair-dependent latencies", found, len(names))
	cs.add("paper", "ADC, CMOV(N)BE, (I)MUL, PSHUFB, ROL/ROR/SAR/SHL/SHR, SBB, MPSADBW, XADD, XCHG, ... have multiple latencies")
	return cs, nil
}

// ZeroIdiomStudy reproduces Section 7.3.6: the (V)PCMPGT instructions are
// dependency-breaking idioms.
func ZeroIdiomStudy(ctx *Context) (*CaseStudy, error) {
	cs := &CaseStudy{ID: "7.3.6", Title: "Dependency-breaking idioms (Skylake)"}
	gen := uarch.Skylake
	c, err := ctx.Char(gen)
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"PCMPGTB_XMM_XMM", "PCMPGTD_XMM_XMM", "PCMPGTQ_XMM_XMM", "PXOR_XMM_XMM", "PCMPEQD_XMM_XMM"} {
		in, err := ctx.variant(gen, name)
		if err != nil {
			return nil, err
		}
		lat, err := c.Latency(in)
		if err != nil {
			return nil, err
		}
		var distinctLat, sameLat float64 = -1, -1
		for _, p := range lat.Pairs {
			if p.Source == 1 && p.Dest == 0 {
				if p.SameRegister {
					sameLat = p.Cycles
				} else {
					distinctLat = p.Cycles
				}
			}
		}
		breaking := sameLat >= 0 && sameLat < 0.5
		cs.add(name, "lat distinct-regs=%.1f  same-reg=%.1f  dependency-breaking=%v", distinctLat, sameLat, breaking)
	}
	cs.add("paper", "(V)PCMPGT(B/D/Q/W) are dependency-breaking idioms not listed in the optimization manual")
	return cs, nil
}

// PortUsageMotivationStudy reproduces the two motivating examples of Section
// 5.1: PBLENDVB on Nehalem and ADC on Haswell, where isolation-based
// attribution produces a wrong or imprecise port usage.
func PortUsageMotivationStudy(ctx *Context) (*CaseStudy, error) {
	cs := &CaseStudy{ID: "5.1", Title: "Why blocking instructions are needed"}
	cases := []struct {
		gen  uarch.Generation
		name string
	}{
		{uarch.Nehalem, "PBLENDVB_XMM_XMM"},
		{uarch.Haswell, "ADC_R64_R64"},
	}
	for _, tc := range cases {
		c, err := ctx.Char(tc.gen)
		if err != nil {
			return nil, err
		}
		b, err := ctx.Baseline(tc.gen)
		if err != nil {
			return nil, err
		}
		in, err := ctx.variant(tc.gen, tc.name)
		if err != nil {
			return nil, err
		}
		pu, err := c.PortUsage(in, 2)
		if err != nil {
			return nil, err
		}
		iso, err := b.PortUsageIsolation(in)
		if err != nil {
			return nil, err
		}
		cs.add(fmt.Sprintf("%s on %s (this work)", tc.name, tc.gen), "%s", pu)
		cs.add(fmt.Sprintf("%s on %s (isolation-based)", tc.name, tc.gen), "%s", iso)
	}
	cs.add("paper (PBLENDVB, Nehalem)", "true usage 2*p05; isolation suggests one µop on p0 and one on p5")
	cs.add("paper (ADC, Haswell)", "true usage 1*p0156+1*p06; isolation suggests 2*p0156")
	return cs, nil
}

// IACADiscrepancyStudy reproduces the Section 7.2 discrepancies between the
// hardware measurements and IACA.
func IACADiscrepancyStudy(ctx *Context) (*CaseStudy, error) {
	cs := &CaseStudy{ID: "7.2", Title: "Differences between hardware measurements and IACA"}
	skl := uarch.Get(uarch.Skylake)
	hsw := uarch.Get(uarch.Haswell)
	cSKL, err := ctx.Char(uarch.Skylake)
	if err != nil {
		return nil, err
	}

	// CMC: implicit carry-flag dependency ignored by IACA.
	cmc, err := ctx.variant(uarch.Skylake, "CMC")
	if err != nil {
		return nil, err
	}
	tp, err := cSKL.Throughput(cmc, nil)
	if err != nil {
		return nil, err
	}
	a30, err := iaca.New(iaca.V30, skl)
	if err != nil {
		return nil, err
	}
	cmcInst, err := buildSimple(skl, "CMC")
	if err != nil {
		return nil, err
	}
	repCMC, err := a30.Analyze(cmcInst)
	if err != nil {
		return nil, err
	}
	cs.add("CMC throughput (measured vs IACA 3.0)", "%.2f vs %.2f cycles (IACA ignores the carry-flag dependency)",
		tp.Measured, repCMC.BlockThroughput)

	// Store/load pair: memory dependency ignored by IACA.
	pair, err := buildStoreLoadPair(skl)
	if err != nil {
		return nil, err
	}
	repPair, err := a30.Analyze(pair)
	if err != nil {
		return nil, err
	}
	h := cSKL.Harness()
	resPair, err := h.Measure(pair)
	if err != nil {
		return nil, err
	}
	cs.add("mov [RAX],RBX; mov RBX,[RAX] (measured vs IACA 3.0)", "%.2f vs %.2f cycles per iteration",
		resPair.Cycles, repPair.BlockThroughput)

	// BSWAP 32 vs 64 bit on Skylake.
	for _, name := range []string{"BSWAP_R32", "BSWAP_R64"} {
		in, err := ctx.variant(uarch.Skylake, name)
		if err != nil {
			return nil, err
		}
		uops, _, err := cSKL.MeasuredUops(in)
		if err != nil {
			return nil, err
		}
		e, _ := a30.Entry(name)
		cs.add(name+" µops (measured vs IACA 3.0)", "%.0f vs %d", uops, e.Uops)
	}

	// VHADDPD: per-port detail does not add up to the µop count.
	vh, err := ctx.variant(uarch.Skylake, "VHADDPD_XMM_XMM_XMM")
	if err == nil {
		e, _ := a30.Entry(vh.Name)
		detail := 0
		for _, n := range e.Usage {
			detail += n
		}
		uops, _, err := cSKL.MeasuredUops(vh)
		if err == nil {
			cs.add("VHADDPD (measured µops / IACA total / IACA per-port sum)", "%.0f / %d / %d", uops, e.Uops, detail)
		}
	}

	// VMINPS: IACA 2.3 vs 3.0 on Skylake.
	a23, err := iaca.New(iaca.V23, skl)
	if err != nil {
		return nil, err
	}
	vmin := "VMINPS_XMM_XMM_XMM"
	e23, _ := a23.Entry(vmin)
	e30, _ := a30.Entry(vmin)
	puVMIN, err := cSKL.PortUsage(skl.InstrSet().Lookup(vmin), 4)
	if err != nil {
		return nil, err
	}
	cs.add("VMINPS ports (measured / IACA 2.3 / IACA 3.0)", "%s / %s / %s", puVMIN, e23.UsageString(), e30.UsageString())

	// SAHF: IACA 2.1 vs 2.2 on Haswell.
	a21, err := iaca.New(iaca.V21, hsw)
	if err != nil {
		return nil, err
	}
	a22, err := iaca.New(iaca.V22, hsw)
	if err != nil {
		return nil, err
	}
	cHSW, err := ctx.Char(uarch.Haswell)
	if err != nil {
		return nil, err
	}
	sahf := hsw.InstrSet().Lookup("SAHF")
	puSAHF, err := cHSW.PortUsage(sahf, 1)
	if err != nil {
		return nil, err
	}
	s21, _ := a21.Entry("SAHF")
	s22, _ := a22.Entry("SAHF")
	cs.add("SAHF on Haswell (measured / IACA 2.1 / IACA 2.2)", "%s / %s / %s", puSAHF, s21.UsageString(), s22.UsageString())

	// IMUL with a memory operand on Nehalem: missing load µop in IACA.
	nhm := uarch.Get(uarch.Nehalem)
	a21n, err := iaca.New(iaca.V21, nhm)
	if err != nil {
		return nil, err
	}
	cNHM, err := ctx.Char(uarch.Nehalem)
	if err != nil {
		return nil, err
	}
	imul := nhm.InstrSet().Lookup("IMUL_R64_M64")
	uopsIMUL, _, err := cNHM.MeasuredUops(imul)
	if err != nil {
		return nil, err
	}
	eIMUL, _ := a21n.Entry("IMUL_R64_M64")
	cs.add("IMUL r64, m64 on Nehalem µops (measured vs IACA)", "%.0f vs %d (IACA misses the load µop)", uopsIMUL, eIMUL.Uops)

	return cs, nil
}

// ThroughputLPStudy reproduces Section 5.3.2: the throughput computed from
// the port usage via the min-max-load linear program matches the measured
// throughput for instructions without implicit dependencies, and equals
// 1/|P| for 1-µop instructions.
func ThroughputLPStudy(ctx *Context) (*CaseStudy, error) {
	cs := &CaseStudy{ID: "5.3.2", Title: "Throughput computed from port usage (Skylake)"}
	gen := uarch.Skylake
	c, err := ctx.Char(gen)
	if err != nil {
		return nil, err
	}
	names := []string{"ADD_R64_R64", "IMUL_R64_R64", "PSHUFD_XMM_XMM_I8", "PADDD_XMM_XMM", "MULPS_XMM_XMM", "MOVQ2DQ_XMM_MM"}
	for _, name := range names {
		in, err := ctx.variant(gen, name)
		if err != nil {
			return nil, err
		}
		pu, err := c.PortUsage(in, 0)
		if err != nil {
			return nil, err
		}
		tp, err := c.Throughput(in, pu)
		if err != nil {
			return nil, err
		}
		cs.add(name, "ports=%s  measured=%.2f  computed=%.2f", pu, tp.Measured, tp.Computed)
	}
	return cs, nil
}

// AllCaseStudies runs every case study.
func AllCaseStudies(ctx *Context) ([]*CaseStudy, error) {
	builders := []func(*Context) (*CaseStudy, error){
		PortUsageMotivationStudy,
		ThroughputLPStudy,
		IACADiscrepancyStudy,
		AESLatencyStudy,
		SHLDStudy,
		MOVQ2DQStudy,
		MOVDQ2QStudy,
		MultiLatencyStudy,
		ZeroIdiomStudy,
	}
	var out []*CaseStudy
	for _, build := range builders {
		cs, err := build(ctx)
		if err != nil {
			return nil, err
		}
		out = append(out, cs)
	}
	return out, nil
}
