// Package iaca is a stand-in for Intel's Architecture Code Analyzer (IACA),
// the closed-source static analysis tool the paper compares its hardware
// measurements against (Sections 2.1, 6.3 and 7.2).
//
// Like the real tool, this analyzer has its own per-version instruction
// database that is decoupled from the actual hardware behaviour, analyzes a
// code sequence as the body of a loop while ignoring dependencies through
// status flags and memory, and reports block throughput and per-port
// pressure. The databases are derived from the simulator's ground truth with
// the discrepancies documented in the paper injected per version and
// generation (missing load µops, spurious store µops, BSWAP and VHADDPD
// anomalies, the SAHF and VMINPS version differences, MOVQ2DQ/MOVDQ2Q, and a
// deterministic background rate of small errors), so the agreement statistics
// of Table 1 and the case studies of Section 7.2/7.3 can be regenerated
// without the proprietary binary.
//
//uopslint:deterministic
package iaca

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"sync"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/isa"
	"uopsinfo/internal/lp"
	"uopsinfo/internal/pipesim"
	"uopsinfo/internal/uarch"
)

// Version identifies an IACA release.
type Version string

// The IACA versions considered by the paper.
const (
	V21 Version = "2.1"
	V22 Version = "2.2"
	V23 Version = "2.3"
	V30 Version = "3.0"
)

// AllVersions lists the modelled versions in release order.
var AllVersions = []Version{V21, V22, V23, V30}

// SupportedVersions returns the IACA versions that support a generation
// (fourth column of Table 1). Kaby Lake and Coffee Lake are not supported by
// any version.
func SupportedVersions(gen uarch.Generation) []Version {
	switch gen {
	case uarch.Nehalem, uarch.Westmere:
		return []Version{V21, V22}
	case uarch.SandyBridge, uarch.IvyBridge:
		return []Version{V21, V22, V23}
	case uarch.Haswell:
		return []Version{V21, V22, V23, V30}
	case uarch.Broadwell:
		return []Version{V22, V23, V30}
	case uarch.Skylake:
		return []Version{V23, V30}
	default:
		return nil
	}
}

// Supports reports whether the version supports the generation.
func Supports(v Version, gen uarch.Generation) bool {
	for _, sv := range SupportedVersions(gen) {
		if sv == v {
			return true
		}
	}
	return false
}

// Entry is one instruction's description in an IACA database.
type Entry struct {
	// Uops is the total µop count the tool reports.
	Uops int
	// Usage maps port combinations to µop counts (the per-port detail
	// view). Its sum can differ from Uops (the VHADDPD anomaly).
	Usage uarch.Usage
}

// UsageString renders the entry's port usage in the paper's notation.
func (e Entry) UsageString() string { return e.Usage.String() }

// dbEntry is an Entry with its UsageString, which Lookup formats on first
// use: every results file renders it, but building the analyzer, most of a
// cold process's set-up, does not need it.
type dbEntry struct {
	Entry
	once  sync.Once
	usage string
}

// Report is the result of analyzing a code sequence as a loop body.
type Report struct {
	// BlockThroughput is the predicted cycles per loop iteration.
	BlockThroughput float64
	// PortPressure is the predicted µops per port per iteration.
	PortPressure []float64
	// TotalUops is the total µop count per iteration.
	TotalUops int
	// Latency is the predicted critical-path latency; only version 2.1
	// reports it (latency support was dropped in 2.2).
	Latency float64
	// HasLatency indicates whether Latency is populated.
	HasLatency bool
}

// Analyzer is one IACA version targeting one microarchitecture.
type Analyzer struct {
	version Version
	arch    *uarch.Arch
	sets    portSets
	db      map[string]int32 // variant name → index into entries
	entries []dbEntry
}

// New builds the analyzer for a version/microarchitecture pair, or an error
// if the version does not support the generation.
func New(v Version, arch *uarch.Arch) (*Analyzer, error) {
	if !Supports(v, arch.Gen()) {
		return nil, fmt.Errorf("iaca: version %s does not support %s", v, arch.Name())
	}
	instrs := arch.InstrSet().Instrs()
	a := &Analyzer{version: v, arch: arch, sets: portSetsFor(arch),
		db: make(map[string]int32, len(instrs)), entries: make([]dbEntry, len(instrs))}
	for i, in := range instrs {
		a.db[in.Name] = int32(i)
		a.entries[i].Entry = a.buildEntry(in)
	}
	return a, nil
}

// Version returns the analyzer's IACA version.
func (a *Analyzer) Version() Version { return a.version }

// Arch returns the targeted microarchitecture.
func (a *Analyzer) Arch() *uarch.Arch { return a.arch }

// Entry returns the database entry for an instruction variant.
func (a *Analyzer) Entry(name string) (Entry, bool) {
	i, ok := a.db[name]
	if !ok {
		return Entry{}, false
	}
	return a.entries[i].Entry, true
}

// Lookup returns the database entry for an instruction variant together
// with its UsageString, which the analyzer formats once, on first use. It
// is safe for concurrent use.
func (a *Analyzer) Lookup(name string) (e Entry, usage string, ok bool) {
	i, ok := a.db[name]
	if !ok {
		return Entry{}, "", false
	}
	d := &a.entries[i]
	d.once.Do(func() { d.usage = d.UsageString() })
	return d.Entry, d.usage, true
}

// buildEntry derives the database entry for one variant: the ground truth
// plus the injected per-version discrepancies.
func (a *Analyzer) buildEntry(in *isa.Instr) Entry {
	perf := a.arch.Perf(in)
	usage := perf.PortUsage()
	uops := len(perf.Uops)
	gen := a.arch.Gen()
	p := &a.sets

	switch {
	// Missing load µops for some memory-reading instructions on Nehalem and
	// Westmere (e.g. IMUL, Section 7.2).
	case gen <= uarch.Westmere && in.ReadsMemory() && isLoadDropMnemonic(in.Mnemonic):
		removeOne(usage, p.load)
		uops--

	// Spurious store µops for TEST with a memory operand on Nehalem.
	case gen <= uarch.Westmere && in.Mnemonic == "TEST" && in.ReadsMemory():
		usage[p.storeData]++
		usage[p.storeAddr]++
		uops += 2

	// BSWAP: IACA does not distinguish the 32-bit and 64-bit variants on
	// Skylake; both get the 64-bit decomposition.
	case gen >= uarch.Skylake && in.Mnemonic == "BSWAP" && in.Operands[0].Width == 32:
		usage = uarch.Usage{p.shift: 1, p.intALU: 1}
		uops = 2

	// VHADDPD/VHADDPS on Skylake: the total µop count is right but the
	// per-port detail only shows one µop.
	case gen >= uarch.Skylake && (in.Mnemonic == "VHADDPD" || in.Mnemonic == "VHADDPS"):
		usage = uarch.Usage{p.fpAdd: 1}
		// uops stays at the correct total of 3.

	// VMINPS on Skylake: version 2.3 reports ports 0, 1 and 5; version 3.0
	// (and the hardware) reports ports 0 and 1.
	case gen >= uarch.Skylake && in.Mnemonic == "VMINPS" && a.version == V23:
		usage = uarch.Usage{uarch.NewPortSet(0, 1, 5): sumUsage(usage)}

	// SAHF on Haswell/Broadwell: correct (p06) in 2.1, p0156 in later
	// versions.
	case (gen == uarch.Haswell || gen == uarch.Broadwell) && in.Mnemonic == "SAHF" && a.version != V21:
		usage = uarch.Usage{p.intALU: 1}

	// MOVDQ2Q on Haswell/Broadwell: correct (1*p5+1*p015) in 2.1,
	// 1*p01+1*p015 in later versions.
	case (gen == uarch.Haswell || gen == uarch.Broadwell) && in.Mnemonic == "MOVDQ2Q" && a.version != V21:
		usage = uarch.Usage{uarch.NewPortSet(0, 1): 1, uarch.NewPortSet(0, 1, 5): 1}

	// MOVQ2DQ on Skylake: both µops are reported on port 5 only.
	case gen >= uarch.Skylake && in.Mnemonic == "MOVQ2DQ":
		usage = uarch.Usage{uarch.NewPortSet(5): 2}

	// LOCK-prefixed instructions: the µop count differs systematically from
	// the hardware measurement (the paper excludes them from Table 1).
	case in.HasLock:
		uops -= 3
		if uops < 1 {
			uops = 1
		}

	// REP-prefixed instructions have a variable µop count on hardware; the
	// static tool reports a fixed small count.
	case in.HasRep:
		uops = 2
		usage = uarch.Usage{p.intALU: 2}
	}

	// Background error rate: a deterministic pseudo-random subset of
	// variants gets a µop count off by one, and a further subset gets one
	// µop's port binding changed. This reproduces the overall agreement
	// statistics of Table 1 without enumerating every real IACA bug. The
	// instructions named in the paper's case studies are exempt so that
	// their documented (mis)behaviour is exactly the injected one above.
	// The hash deliberately excludes the IACA version: like the real tool's
	// database errors, the background errors persist across versions (the
	// per-version differences come from the named cases above).
	h := entryHash(in.Name, int(gen))
	if !in.HasLock && !in.HasRep && !caseStudyMnemonics[in.Mnemonic] {
		if h%100 < 7 {
			usage[p.intALU]++
			uops++
		} else if h%100 >= 7 && h%100 < 11 {
			// Rebind one µop from the shuffle ports to the vector-logic
			// ports (or vice versa) if present.
			if usage[p.shuffle] > 0 {
				usage[p.shuffle]--
				if usage[p.shuffle] == 0 {
					delete(usage, p.shuffle)
				}
				usage[p.vecLogic]++
			} else if usage[p.intALU] > 0 {
				usage[p.intALU]--
				if usage[p.intALU] == 0 {
					delete(usage, p.intALU)
				}
				usage[p.shift]++
			}
		}
	}
	return Entry{Uops: uops, Usage: usage}
}

// portSets are the port combinations of the targeted generation that
// buildEntry injects discrepancies with, computed once per analyzer by
// portSetsFor and cached in Analyzer.sets.
type portSets struct {
	intALU, shift, shuffle, vecLogic, fpAdd, load, storeAddr, storeData uarch.PortSet
}

func portSetsFor(arch *uarch.Arch) portSets {
	sets := portSets{
		intALU: uarch.NewPortSet(0, 1, 5, 6), shift: uarch.NewPortSet(0, 6), shuffle: uarch.NewPortSet(5),
		vecLogic: uarch.NewPortSet(0, 1, 5), fpAdd: uarch.NewPortSet(1),
		load: arch.LoadPorts(), storeAddr: arch.StoreAddrPorts(), storeData: arch.StoreDataPorts(),
	}
	switch {
	case arch.NumPorts() == 6:
		sets.intALU, sets.shift = uarch.NewPortSet(0, 1, 5), uarch.NewPortSet(0, 5)
	case arch.Gen() >= uarch.Skylake:
		sets.fpAdd = uarch.NewPortSet(0, 1)
	}
	return sets
}

// caseStudyMnemonics are exempt from the background error injection because
// the paper makes specific claims about how IACA reports them.
var caseStudyMnemonics = map[string]bool{
	"CMC": true, "MOV": true, "TEST": true, "ADD": true, "ADC": true, "IMUL": true,
	"BSWAP": true, "VHADDPD": true, "VHADDPS": true, "VMINPS": true, "SAHF": true,
	"MOVQ2DQ": true, "MOVDQ2Q": true, "SHLD": true, "SHRD": true, "PBLENDVB": true,
	"AESDEC": true, "AESDECLAST": true, "AESENC": true, "AESENCLAST": true,
	"PCMPGTB": true, "PCMPGTW": true, "PCMPGTD": true, "PCMPGTQ": true,
	"PSHUFD": true, "MOVSHDUP": true, "MOVSX": true,
}

func isLoadDropMnemonic(m string) bool {
	switch m {
	case "IMUL", "MUL", "CRC32", "POPCNT":
		return true
	}
	return false
}

func removeOne(usage uarch.Usage, combo uarch.PortSet) {
	if usage[combo] > 0 {
		usage[combo]--
		if usage[combo] == 0 {
			delete(usage, combo)
		}
	}
}

func sumUsage(usage uarch.Usage) int {
	n := 0
	for _, v := range usage {
		n += v
	}
	return n
}

func entryHash(parts ...interface{}) uint32 {
	h := fnv.New32a()
	for _, p := range parts {
		fmt.Fprintf(h, "%v|", p)
	}
	return h.Sum32()
}

// Analyze treats the code sequence as the body of a loop and predicts its
// steady-state behaviour, ignoring dependencies through status flags and
// memory (which is why, e.g., CMC is predicted at 0.25 cycles per iteration
// and a store/load pair at 1 cycle, Section 7.2).
func (a *Analyzer) Analyze(code asmgen.Sequence) (Report, error) {
	numPorts := a.arch.NumPorts()
	var groups []lp.PortGroup
	total := 0
	latency := 0.0
	for _, inst := range code {
		e, ok := a.Entry(inst.Variant.Name)
		if !ok {
			return Report{}, fmt.Errorf("iaca %s: instruction %s not supported", a.version, inst.Variant.Name)
		}
		// Feed the scheduler in key order: it breaks assignment ties by
		// group position, so map iteration order would otherwise reach the
		// predicted port pressure.
		combos := make([]uarch.PortSet, 0, len(e.Usage))
		for combo := range e.Usage {
			combos = append(combos, combo)
		}
		slices.SortFunc(combos, func(a, b uarch.PortSet) int { return strings.Compare(a.String(), b.String()) })
		for _, combo := range combos {
			groups = append(groups, lp.PortGroup{Ports: combo, Count: float64(e.Usage[combo])})
		}
		total += e.Uops
		latency += float64(maxInt(1, e.Uops))
	}
	tp, assign, err := lp.Schedule(groups, numPorts)
	if err != nil {
		return Report{}, err
	}
	// The front end issues four µops per cycle; the block throughput cannot
	// be below total/4.
	if fe := float64(total) / float64(a.arch.Machine().IssueWidth); fe > tp {
		tp = fe
	}
	pressure := make([]float64, numPorts)
	for _, row := range assign {
		for p, v := range row {
			pressure[p] += v
		}
	}
	rep := Report{
		BlockThroughput: tp,
		PortPressure:    pressure,
		TotalUops:       total,
	}
	if a.version == V21 {
		rep.Latency = latency
		rep.HasLatency = true
	}
	return rep, nil
}

// Run makes the analyzer usable as an execution substrate for the
// measurement harness (the paper's "variant of our tool that runs the
// microbenchmarks on top of IACA", Section 6.3): the predicted block
// throughput becomes the cycle count and the predicted port pressure becomes
// the per-port µop counters.
func (a *Analyzer) Run(code asmgen.Sequence) (pipesim.Counters, error) {
	rep, err := a.Analyze(code)
	if err != nil {
		return pipesim.Counters{}, err
	}
	c := pipesim.Counters{
		Cycles:     int(math.Ceil(rep.BlockThroughput)),
		TotalUops:  rep.TotalUops,
		IssuedUops: rep.TotalUops,
	}
	for p, v := range rep.PortPressure {
		c.PortUops[p] = int(v + 0.5)
	}
	return c, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// DescribeVersions renders the supported-version range for a generation the
// way Table 1 does (e.g. "2.1-3.0"), or "-" if unsupported.
func DescribeVersions(gen uarch.Generation) string {
	vs := SupportedVersions(gen)
	if len(vs) == 0 {
		return "-"
	}
	if len(vs) == 1 {
		return string(vs[0])
	}
	return string(vs[0]) + "-" + string(vs[len(vs)-1])
}

// ParseVersion converts a version string to a Version.
func ParseVersion(s string) (Version, error) {
	for _, v := range AllVersions {
		if string(v) == s || strings.TrimPrefix(s, "v") == string(v) {
			return v, nil
		}
	}
	return "", fmt.Errorf("iaca: unknown version %q", s)
}
