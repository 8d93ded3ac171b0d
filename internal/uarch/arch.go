package uarch

import (
	"fmt"
	"strings"
	"sync"
	"unicode"

	"uopsinfo/internal/isa"
	"uopsinfo/internal/xedspec"
)

// Generation identifies an Intel Core microarchitecture generation.
type Generation int

// The nine generations evaluated in the paper (Table 1).
const (
	Nehalem Generation = iota
	Westmere
	SandyBridge
	IvyBridge
	Haswell
	Broadwell
	Skylake
	KabyLake
	CoffeeLake
	numGenerations
)

var generationNames = [...]string{
	"Nehalem", "Westmere", "Sandy Bridge", "Ivy Bridge",
	"Haswell", "Broadwell", "Skylake", "Kaby Lake", "Coffee Lake",
}

// processorNames lists the processor models used in the paper's evaluation
// (Table 1), for reporting purposes.
var processorNames = [...]string{
	"Core i5-750", "Core i5-650", "Core i7-2600", "Core i5-3470",
	"Xeon E3-1225 v3", "Core i5-5200U", "Core i7-6500U", "Core i7-7700", "Core i7-8700K",
}

func (g Generation) String() string {
	if g >= 0 && int(g) < len(generationNames) {
		return generationNames[g]
	}
	return fmt.Sprintf("Generation(%d)", int(g))
}

// Valid reports whether g is one of the modelled generations. Values decoded
// from external input (URLs, configuration files) must be checked — or
// resolved through LookupGeneration — before being handed to Get.
func (g Generation) Valid() bool { return g >= 0 && g < numGenerations }

// GenerationNames returns the canonical generation names in chronological
// order.
func GenerationNames() []string {
	names := make([]string, numGenerations)
	for g := Generation(0); g < numGenerations; g++ {
		names[g] = g.String()
	}
	return names
}

// foldGenName folds a generation name for lookup: lower-cased with spaces,
// hyphens and underscores removed, so "Sandy Bridge", "sandy-bridge" and
// "SANDYBRIDGE" (e.g. a URL path segment) all fold to the same name.
func foldGenName(name string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case ' ', '-', '_':
			return -1
		}
		return unicode.ToLower(r)
	}, name)
}

// foldedGenNames holds every generation's name folded by foldGenName.
var foldedGenNames = func() (folded [numGenerations]string) {
	for g := range folded {
		folded[g] = foldGenName(generationNames[g])
	}
	return folded
}()

// foldsTo reports whether foldGenName(name) == folded, for an ASCII folded,
// rune by rune and without building the folded name.
func foldsTo(name, folded string) bool {
	i := 0
	for _, r := range name {
		switch r {
		case ' ', '-', '_':
			continue
		}
		if i == len(folded) || unicode.ToLower(r) != rune(folded[i]) {
			return false
		}
		i++
	}
	return i == len(folded)
}

// LookupGeneration resolves a generation name to its Generation value. The
// match is case-insensitive and ignores spaces, hyphens and underscores, so
// URL-friendly spellings of the multi-word names work; a match allocates
// nothing. An unknown name is an error (never a panic): it lists the known
// generations so e.g. an HTTP handler can return the message verbatim with
// a 400 status.
func LookupGeneration(name string) (Generation, error) {
	for g, folded := range foldedGenNames {
		if foldsTo(name, folded) {
			return Generation(g), nil
		}
	}
	return 0, fmt.Errorf("uarch: unknown generation %q (known: %s)",
		name, strings.Join(GenerationNames(), ", "))
}

// Lookup returns the Arch for a generation, rejecting out-of-range values
// with an error. It is the checked form of Get for Generation values that
// were not produced by this package. A named generation whose Arch failed to
// build (a constant added without a profileFor case) is also an error here,
// never a (nil, nil) pair.
func Lookup(gen Generation) (*Arch, error) {
	if !gen.Valid() {
		return nil, fmt.Errorf("uarch: unknown generation %v (known: %s)",
			gen, strings.Join(GenerationNames(), ", "))
	}
	a := Get(gen)
	if a == nil {
		return nil, fmt.Errorf("uarch: generation %v has no microarchitecture profile", gen)
	}
	return a, nil
}

// Processor returns the processor model the paper used for this generation.
func (g Generation) Processor() string {
	if g >= 0 && int(g) < len(processorNames) {
		return processorNames[g]
	}
	return "unknown"
}

// Machine is what a simulator reads of a generation besides the µops of its
// variants (Arch.Perf): the pipeline parameters the µop tables do not
// describe. It is comparable, so two generations with equal Machines and
// equal µops are the same machine to the simulator.
type Machine struct {
	NumPorts    int // execution ports (6 or 8)
	IssueWidth  int // µops the front end delivers per cycle
	LoadLatency int // L1 data-cache load-to-use latency, in cycles
	// SSEAVXPenalty is the cycle penalty charged for a transition between
	// legacy SSE code and AVX code with a dirty upper state (0 if the
	// generation does not penalize transitions).
	SSEAVXPenalty int
}

// profile collects the per-generation port layout and pipeline parameters the
// rule-based µop assignment uses.
type profile struct {
	machine Machine

	// Port groups by functional-unit kind.
	intALU    PortSet
	intShift  PortSet
	intMul    PortSet
	intDiv    PortSet
	lea       PortSet
	branch    PortSet
	load      PortSet
	storeAddr PortSet
	storeData PortSet
	fpAdd     PortSet
	fpMul     PortSet
	fpDiv     PortSet
	vecALU    PortSet
	vecMul    PortSet
	vecLogic  PortSet
	shuffle   PortSet
	aes       PortSet
	slowInt   PortSet // microcoded helpers (CPUID, string ops, ...)

	// Capabilities.
	moveElimGPR   bool // register-to-register GPR moves can be eliminated
	moveElimVec   bool // SIMD register moves can be eliminated
	zeroIdiomElim bool // zero idioms are removed at rename (no port)

	// Typical latencies that differ between generations.
	fpAddLat  int
	fpMulLat  int
	fmaLat    int
	aesLat    int
	vecMulLat int
}

// Arch is the microarchitectural ground truth for one generation: the
// instruction set it supports and the performance description of every
// variant.
type Arch struct {
	gen        Generation
	prof       profile
	extensions map[isa.Extension]bool

	setOnce sync.Once
	set     *isa.Set

	// perfCache maps variant name → *InstrPerf. It is a sync.Map because
	// Perf sits on the simulator's rename hot path and is shared by every
	// concurrent worker stack of a generation: reads must not contend on a
	// lock. perfMu only serializes the builders on a cache miss.
	perfMu    sync.Mutex
	perfCache sync.Map
	overrides map[string]*InstrPerf
}

// Gen returns the generation this Arch describes.
func (a *Arch) Gen() Generation { return a.gen }

// Name returns the generation name.
func (a *Arch) Name() string { return a.gen.String() }

// Machine returns the generation's pipeline parameters.
func (a *Arch) Machine() Machine { return a.prof.machine }

// NumPorts returns the number of execution ports (6 or 8).
func (a *Arch) NumPorts() int { return a.prof.machine.NumPorts }

// Ports returns the set of the execution ports, 0 to NumPorts-1.
func (a *Arch) Ports() PortSet { return PortsBelow(a.prof.machine.NumPorts) }

// LoadPorts returns the ports with a load unit.
func (a *Arch) LoadPorts() PortSet { return a.prof.load }

// StoreAddrPorts returns the ports with a store-address unit.
func (a *Arch) StoreAddrPorts() PortSet { return a.prof.storeAddr }

// StoreDataPorts returns the ports with a store-data unit.
func (a *Arch) StoreDataPorts() PortSet { return a.prof.storeData }

// Supports reports whether the generation implements the given ISA extension.
func (a *Arch) Supports(ext isa.Extension) bool { return a.extensions[ext] }

// InstrSet returns the instruction variants available on this generation
// (the full generated instruction set filtered by supported extensions).
func (a *Arch) InstrSet() *isa.Set {
	a.setOnce.Do(func() {
		full := xedspec.MustFullISA()
		a.set = full.Filter(func(in *isa.Instr) bool { return a.extensions[in.Extension] })
	})
	return a.set
}

// Perf returns the ground-truth performance description of the given
// instruction variant on this generation. The result is cached and must be
// treated as read-only. The cached path is lock-free.
func (a *Arch) Perf(in *isa.Instr) *InstrPerf {
	if p, ok := a.perfCache.Load(in.Name); ok {
		return p.(*InstrPerf)
	}
	a.perfMu.Lock()
	defer a.perfMu.Unlock()
	if p, ok := a.perfCache.Load(in.Name); ok {
		return p.(*InstrPerf)
	}
	var p *InstrPerf
	if ov, ok := a.overrides[in.Name]; ok {
		p = ov
	} else {
		p = a.buildPerf(in)
	}
	a.perfCache.Store(in.Name, p)
	return p
}

// PerfByName is a convenience wrapper around Perf that looks the variant up
// in the generation's instruction set.
func (a *Arch) PerfByName(name string) (*InstrPerf, error) {
	in := a.InstrSet().Lookup(name)
	if in == nil {
		return nil, fmt.Errorf("uarch: %s: no instruction variant %q", a.Name(), name)
	}
	return a.Perf(in), nil
}

var (
	archsOnce sync.Once
	archs     map[Generation]*Arch
)

// Get returns the Arch for the given generation.
func Get(gen Generation) *Arch {
	archsOnce.Do(buildArchs)
	return archs[gen]
}

// All returns all modelled generations in chronological order.
func All() []*Arch {
	archsOnce.Do(buildArchs)
	out := make([]*Arch, 0, int(numGenerations))
	for g := Generation(0); g < numGenerations; g++ {
		out = append(out, archs[g])
	}
	return out
}

// ByName returns the Arch whose generation name matches name, under
// LookupGeneration's flexible matching (case-insensitive, separators
// ignored), e.g. "Skylake", "Sandy Bridge" or "sandy-bridge".
func ByName(name string) (*Arch, error) {
	g, err := LookupGeneration(name)
	if err != nil {
		return nil, err
	}
	return Lookup(g)
}

func buildArchs() {
	archs = make(map[Generation]*Arch, int(numGenerations))
	for g := Generation(0); g < numGenerations; g++ {
		prof, ok := profileFor(g)
		if !ok {
			// Unreachable for the modelled range; skipping keeps an
			// unmodelled constant a lookup miss instead of a crash.
			continue
		}
		a := &Arch{
			gen:        g,
			prof:       prof,
			extensions: extensionsFor(g),
		}
		a.overrides = overridesFor(a)
		archs[g] = a
	}
}
