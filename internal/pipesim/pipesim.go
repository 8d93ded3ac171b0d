// Package pipesim is a cycle-level simulator of the out-of-order execution
// engine of Intel Core CPUs (Figure 1 of the paper). It stands in for the
// real hardware in this reproduction: the measurement harness (package
// measure) runs generated microbenchmark code on it and reads simulated
// performance counters (core cycles and µops dispatched per port), which is
// exactly the interface the paper's algorithms use on silicon.
//
// The simulator models the mechanisms the characterization algorithms have to
// cope with:
//
//   - a front end that issues up to IssueWidth µops per cycle, in order;
//   - register renaming (no false WAW/WAR dependencies), with move
//     elimination and zero-idiom handling in the rename stage;
//   - a finite unified scheduler that dispatches the oldest ready µops to
//     execution ports, at most one µop per port per cycle;
//   - per-µop latencies, including different latencies to different outputs;
//   - individual status-flag dependencies and partial-register merges;
//   - load latency, store-address/store-data µops and memory dependencies;
//   - a non-pipelined divider unit with value-dependent occupancy;
//   - bypass delays between the vector-integer and floating-point domains;
//   - SSE/AVX transition penalties.
//
// Because the harness simulates every measured kernel at each copy count
// across the whole ISA (RunCopies renames the kernel once per copy inside
// one run, so no copies are materialized), Run and RunCopies are the hot
// path of every characterization run. Most of those readings repeat a
// kernel: Algorithm 1 times the same blocking sequence for every variant,
// and most variants share their µop structure, as do generations that
// model the same machine. So RunCopies keeps a reading table — every
// reading simulated, keyed by what the simulation reads of the kernel and
// the machine (memo.go argues why the key is complete) — shared by a
// Machine's clones and by every Machine its owner hands the same table,
// answers a repeated reading from it, and drops it whole when it outgrows
// a fixed byte budget. Run is the uncached simulator.
// Run's implementation is allocation-free in steady state: dynamic µops and
// renamed values live in per-Machine arenas that are reset (not freed)
// between runs, and the rename scoreboard is a flat array keyed by register
// family and status flag. Rename decodes each variant once per Machine into
// a rename template — its µops with their port masks, operand references
// resolved to explicit-operand indices, and latencies per divider regime —
// and instantiates the template for each dynamic instance, binding it once
// for a run of one repeated instance (the blocking instructions of a
// port-usage kernel); variants that decode alike share one template.
// Dispatch is event-driven: each renamed value keeps a
// wake-up list of the µops waiting on it, a µop enters the ready queue only
// when its last input's ready time arrives, a cycle's arrivals are appended
// to the queue when they are all younger than it (merged only otherwise),
// and the per-cycle dispatch walk touches ready µops only (never the whole
// scheduler window). A Machine consequently carries mutable state and must
// not be used from multiple goroutines concurrently; use Clone to obtain
// independent Machines for concurrent workers.
//
//uopslint:deterministic
//uopslint:arena
package pipesim

import (
	"fmt"
	"math/bits"
	"slices"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/isa"
	"uopsinfo/internal/uarch"
)

// Version is the behavioural revision of the simulator. It is the version
// fingerprint of the pipesim measurement backend and is thereby folded into
// persistent cache keys: bump it whenever a change alters the simulated
// counter values, so results measured on the old behaviour read as misses
// instead of being served stale. (The arena/event-list rewrite of the hot
// path is behaviour-preserving, so it did not bump this.)
const Version = "1"

// DividerValues selects whether operand values for divider-based instructions
// are "fast" or "slow" (Section 5.2.5: the latency and throughput of
// divisions depend on the operand values). The microbenchmark generator pins
// operand values accordingly; the simulator, which does not track actual data
// values, is told which regime the pinned values are in.
type DividerValues int

// Divider value regimes.
const (
	// SlowDividerValues corresponds to operand values that lead to the high
	// (worst-case) latency.
	SlowDividerValues DividerValues = iota
	// FastDividerValues corresponds to operand values that lead to the low
	// latency.
	FastDividerValues
)

// MaxPorts bounds the execution ports of a modelled generation: the
// per-port bitmasks, load tables and counters have this many entries. All
// modelled generations have 6 or 8 execution ports.
const MaxPorts = 16

// Counters is the simulated performance-counter state after running a code
// sequence: elapsed core cycles and the number of µops dispatched to each
// port (Section 3.3). PortUops holds one entry per port of the machine,
// then zeros. Counters are plain values: copies share nothing, and equal
// readings compare equal with ==.
type Counters struct {
	Cycles     int
	PortUops   [MaxPorts]int
	TotalUops  int // µops dispatched to an execution port
	IssuedUops int // all µops, including those handled at rename
	ElimUops   int // µops eliminated at rename (moves, zero idioms, NOPs)
}

// Sub returns c - o element-wise.
func (c Counters) Sub(o Counters) Counters {
	c.Cycles -= o.Cycles
	c.TotalUops -= o.TotalUops
	c.IssuedUops -= o.IssuedUops
	c.ElimUops -= o.ElimUops
	for i := range c.PortUops {
		c.PortUops[i] -= o.PortUops[i]
	}
	return c
}

// Config controls simulation parameters that are not part of the
// per-generation profile.
type Config struct {
	// SchedulerSize is the number of entries in the unified reservation
	// station. Zero selects the default of 60 entries.
	//
	// The window counts µops that have issued but not yet dispatched to an
	// execution port: a µop occupies its entry from the cycle it issues
	// until the end of the cycle in which it dispatches, and the freed entry
	// can be refilled by the front end in the next cycle. µops handled at
	// rename (eliminated moves, zero idioms, NOPs) never occupy an entry.
	// TestSchedulerSizeLimitsWindow pins these semantics.
	SchedulerSize int
	// MaxCycles aborts runaway simulations. Zero selects a large default.
	MaxCycles int
	// DividerValues selects the operand-value regime for divider-based
	// instructions.
	DividerValues DividerValues
}

// idx32 is the single funnel for narrowing wide integers into the int32
// arena indices and cycle counts used throughout the simulator. In race
// builds assert32 panics on values outside the int32 range; in production
// builds it is empty and the funnel compiles down to a bare conversion.
func idx32(v int) int32 {
	assert32(v)
	return int32(v)
}

// numFlagVals is the size of the status-flag scoreboard.
const numFlagVals = int(isa.NumFlags)

// domain is an isa.Domain narrowed to a byte, the form the arenas and
// templates store.
type domain uint8

// intDomain is isa.DomainInt as a domain.
const intDomain = domain(isa.DomainInt)

// dynVal is one renamed value (a physical-register-like entity). Values live
// in the Machine's val arena and are referenced by index. waiters heads the
// value's wake-up list: the µops that issued before the value was known and
// must be notified (pending count decremented, readyAt folded in) when the
// producer dispatches. The list is linked through the Machine's waiter-node
// arena and consumed exactly once.
type dynVal struct {
	ready   int32 // cycle the value becomes available
	waiters int32 // head of the wake-up list (waiter-node index, -1 = none)
	known   bool  // producer has dispatched (or the value is live-in)
	domain  domain
}

// dynUop is one dynamic µop instance. µops live in the Machine's µop arena;
// their read and write value lists are [start,end) segments of the shared
// readIdx/writeIdx backing slices (writeLat is parallel to writeIdx).
// pending and readyAt are the wake-up bookkeeping, maintained from issue
// onward: pending counts read values whose producer has not yet dispatched,
// and readyAt accumulates the latest input-ready time seen so far (including
// the bypass delay for µops that execute on a port; eliminated µops complete
// at rename and take no bypass). A µop enters the dispatch ready queue only
// when pending reaches zero and the cycle reaches readyAt.
type dynUop struct {
	rdStart, rdEnd int32
	wrStart, wrEnd int32
	pending        int32
	readyAt        int32
	portMask       uint16 // allowed execution ports as a bitmask
	eliminated     bool
	divider        bool
	domain         domain
	divOcc         int32
}

// record is the machine record a Machine simulates: what rename and
// execute read of the machine besides the µops of its variants, namely the
// generation's uarch.Machine and the SchedulerSize and MaxCycles of
// Config. It is fixed when the Machine is made.
type record struct {
	uarch.Machine
	schedulerSize, maxCycles int
}

// Machine simulates one microarchitecture generation.
//
// A Machine owns reusable per-run state (arenas, scoreboards, scheduler
// queues) so that steady-state Run calls perform no heap allocations. It is
// therefore NOT safe for concurrent use: each goroutine needs its own
// Machine (see Clone). The reading table of RunCopies is the one thing
// Machines share, and it synchronizes itself.
type Machine struct {
	arch *uarch.Arch
	cfg  Config
	// rec is the machine record, and recKey its encoding, the prefix of
	// every reading's key (memo.go).
	rec    record
	recKey []byte

	// tmplOf memoizes each variant's rename template (an index into tmpls),
	// keyed by identity and built on first use. A template holds only facts
	// of the variant on this generation, so it persists across runs and
	// divider regimes; its µops and references live in the flat tmplUops,
	// tmplReads and tmplWrites slices, addressed by [start,end) ranges.
	// tableIDs holds each template's id in the table's interner, and
	// tmplByID the template of each id built here, so variants that decode
	// alike share a template.
	tmplOf     map[*isa.Instr]int32
	tableIDs   []int32
	tmplByID   map[int32]int32
	tmpls      []renameTmpl
	tmplUops   []tmplUop
	tmplReads  []tmplRef
	tmplWrites []tmplWrite

	// table holds the readings of RunCopies and the template ids
	// (memo.go). kernelKey, keyBuf, instKey, tmplKey and addrIDs are
	// scratch for building keys, and missed for the counts a RunCopies
	// call did not find. simulated and recalled count readings (Readings).
	table     *Table
	kernelKey []byte
	keyBuf    []byte
	instKey   []byte
	tmplKey   []byte
	addrIDs   map[uint64]int32
	missed    []miss
	simulated int
	recalled  int

	// Arenas, reset (not freed) between runs.
	vals     []dynVal
	uops     []dynUop
	readIdx  []int32 // backing store for dynUop read segments
	writeIdx []int32 // backing store for dynUop write segments
	writeLat []int32 // latency per written value, parallel to writeIdx

	// Rename scoreboard: latest renamed value per architectural resource.
	// Register families and status flags are flat arrays (-1 = live-in not
	// yet materialized); memory addresses are arbitrary, so they keep a map
	// that is cleared — not reallocated — between runs.
	regBoard  [isa.NumRegs]int32
	flagBoard [numFlagVals]int32
	memBoard  map[uint64]int32
	produced  [isa.NumRegs]bool

	// Per-instruction temporaries, validity-tracked by epoch so no clearing
	// is needed between instructions.
	tempVal   []int32
	tempEpoch []uint64
	tempGen   uint64

	// Wake-up and scheduler state reused across runs. wnUop/wnNext are the
	// waiter-node arena (one node per read of a not-yet-known value, linked
	// into the value's wake-up list); wakeHeap is a binary min-heap of
	// (readyAt, µop) pairs packed into uint64s; readyQ holds the µops whose
	// wake-up time has arrived, sorted by µop index (program order), with
	// readyScratch/arrivals as its merge buffers; elimReady queues
	// rename-handled µops whose inputs are all known.
	wnUop        []int32
	wnNext       []int32
	wakeHeap     []uint64
	readyQ       []int32
	readyScratch []int32
	arrivals     []int32
	elimReady    []int32
	portLoad     [MaxPorts]int32
}

// New returns a Machine for the given microarchitecture with default
// configuration.
func New(arch *uarch.Arch) *Machine {
	return NewWithConfig(arch, Config{})
}

// NewWithConfig returns a Machine with explicit configuration and a
// reading table of its own.
func NewWithConfig(arch *uarch.Arch, cfg Config) *Machine {
	return newMachine(arch, cfg, NewTable())
}

// newMachine returns a Machine that keeps its readings in table.
func newMachine(arch *uarch.Arch, cfg Config, table *Table) *Machine {
	if cfg.SchedulerSize <= 0 {
		cfg.SchedulerSize = 60
	}
	if cfg.MaxCycles <= 0 {
		cfg.MaxCycles = 5_000_000
	}
	// Value-ready times are stored as int32 in the arena; cap the cycle
	// horizon well below that range so they cannot wrap. A simulation this
	// long would never finish anyway — MaxCycles exists to abort runaways.
	if cfg.MaxCycles > 1<<30 {
		cfg.MaxCycles = 1 << 30
	}
	if arch.NumPorts() > MaxPorts {
		// The dispatch stage represents port sets as uint16 bitmasks;
		// silently dropping ports would turn their µops into phantom
		// deadlocks, so fail loudly if a generation ever outgrows the mask.
		panic(fmt.Sprintf("pipesim: %s has %d ports, max supported is %d",
			arch.Name(), arch.NumPorts(), MaxPorts))
	}
	rec := record{Machine: arch.Machine(), schedulerSize: cfg.SchedulerSize, maxCycles: cfg.MaxCycles}
	return &Machine{arch: arch, cfg: cfg, rec: rec, recKey: appendRecKey(nil, rec),
		tmplOf: make(map[*isa.Instr]int32), tmplByID: make(map[int32]int32),
		memBoard: make(map[uint64]int32), table: table, addrIDs: make(map[uint64]int32)}
}

// Arch returns the microarchitecture the machine simulates.
func (m *Machine) Arch() *uarch.Arch { return m.arch }

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Clone returns an independent Machine with the same microarchitecture and
// configuration. The clone shares only the Arch and the reading table, both
// internally synchronized; the arenas, scoreboards, rename templates and
// the divider-value regime are per-Machine, so clones can run on different
// goroutines without synchronization. A clone recalls the readings its
// parent took, and the parent those of the clone.
func (m *Machine) Clone() *Machine {
	return newMachine(m.arch, m.cfg, m.table)
}

// SetTable makes m read and remember its readings in t from now on, shared
// with every other Machine that uses t. It drops m's rename templates,
// whose ids came from the old table.
func (m *Machine) SetTable(t *Table) {
	m.table = t
	clear(m.tmplOf)
	clear(m.tmplByID)
	m.tableIDs, m.tmpls = m.tableIDs[:0], m.tmpls[:0]
	m.tmplUops, m.tmplReads, m.tmplWrites = m.tmplUops[:0], m.tmplReads[:0], m.tmplWrites[:0]
}

// SetDividerValues selects the operand-value regime for divider-based
// instructions in subsequent runs.
func (m *Machine) SetDividerValues(v DividerValues) { m.cfg.DividerValues = v }

// Reset clears all per-run state while keeping the arena capacity, so the
// next Run starts from an idle pipeline without reallocating. It keeps the
// rename templates and the reading table, which hold no per-run state. Run
// calls it automatically; it is exported so tests (and callers that want
// to verify the reuse contract) can exercise it directly. Under
// race-enabled builds, Run additionally verifies the reset invariants,
// which guards against a future slab being added to the Machine without
// being wired into Reset — the failure mode that would leak renamed values
// across runs.
func (m *Machine) Reset() {
	m.vals = m.vals[:0]
	m.uops = m.uops[:0]
	m.readIdx = m.readIdx[:0]
	m.writeIdx = m.writeIdx[:0]
	m.writeLat = m.writeLat[:0]
	for i := range m.regBoard {
		m.regBoard[i] = -1
	}
	for i := range m.flagBoard {
		m.flagBoard[i] = -1
	}
	clear(m.memBoard)
	for i := range m.produced {
		m.produced[i] = false
	}
	m.wnUop = m.wnUop[:0]
	m.wnNext = m.wnNext[:0]
	m.wakeHeap = m.wakeHeap[:0]
	m.readyQ = m.readyQ[:0]
	m.readyScratch = m.readyScratch[:0]
	m.arrivals = m.arrivals[:0]
	m.elimReady = m.elimReady[:0]
	m.portLoad = [MaxPorts]int32{}
	// tempGen is deliberately NOT reset: temp slots are validated by epoch,
	// and the monotonically increasing generation keeps slots from a
	// previous run invalid without clearing them.
}

// checkResetInvariants panics if any per-run state survived Reset. It is
// called from Run only under race-enabled builds (see raceEnabled), where
// the differential and determinism tests run; a leak here means a renamed
// value from a previous Run could alias into the current one.
func (m *Machine) checkResetInvariants() {
	if len(m.vals) != 0 || len(m.uops) != 0 || len(m.readIdx) != 0 ||
		len(m.writeIdx) != 0 || len(m.writeLat) != 0 ||
		len(m.wnUop) != 0 || len(m.wnNext) != 0 || len(m.wakeHeap) != 0 ||
		len(m.readyQ) != 0 || len(m.arrivals) != 0 || len(m.elimReady) != 0 ||
		len(m.memBoard) != 0 {
		panic("pipesim: Reset left arena or queue state behind")
	}
	for i := range m.regBoard {
		if m.regBoard[i] != -1 {
			panic(fmt.Sprintf("pipesim: Reset left register scoreboard entry %s", isa.Reg(i)))
		}
	}
	for i := range m.flagBoard {
		if m.flagBoard[i] != -1 {
			panic(fmt.Sprintf("pipesim: Reset left flag scoreboard entry %s", isa.Flag(i)))
		}
	}
	for i := range m.produced {
		if m.produced[i] {
			panic(fmt.Sprintf("pipesim: Reset left produced mark for %s", isa.Reg(i)))
		}
	}
	for p, l := range m.portLoad {
		if l != 0 {
			panic(fmt.Sprintf("pipesim: Reset left load on port %d", p))
		}
	}
}

// Run simulates the code sequence starting from an idle pipeline with all
// inputs ready, and returns the performance counters. A run that does not
// drain — the deadlock guard fires or MaxCycles runs out — returns an error
// naming the condition instead of truncated counters.
func (m *Machine) Run(code asmgen.Sequence) (Counters, error) {
	return m.run(code, 1)
}

// RunCopies writes to out[i], for each copy count n = copies[i] (n >= 0),
// the counters Run returns for code.Repeat(n), bit for bit: each reading
// renames the kernel n times within one simulated run instead of receiving
// n materialized copies. out must hold at least len(copies) entries, and
// RunCopies retains neither slice, nor code. A reading the table holds —
// one this Machine or a Machine sharing its table took of a kernel equal
// in everything the simulation reads of it, on an equal machine record, at
// the same copy count and divider regime (memo.go) — is recalled instead
// of simulated again, and one that another Machine is simulating now is
// waited for. It stops at the first count whose run does not drain and
// returns that run's error, leaving out unspecified; failed readings are
// not remembered. It implements measure.CopiesRunner.
func (m *Machine) RunCopies(code asmgen.Sequence, copies []int, out []Counters) error {
	out = out[:len(copies)]
	m.kernelKey = m.appendKernelKey(m.kernelKey[:0], code)
	m.missed = m.missed[:0]
	done := 0
	// Deferred, so that a panic releases the claims too.
	defer func() { m.settle(out, done) }()
	m.recall(copies, out)
	for _, ms := range m.missed {
		c, err := m.run(code, copies[ms.i])
		if err != nil {
			return err
		}
		out[ms.i] = c
		done++
	}
	return nil
}

// run simulates copies concatenated copies of code from an idle pipeline.
func (m *Machine) run(code asmgen.Sequence, copies int) (Counters, error) {
	m.simulated++
	m.Reset()
	if raceEnabled {
		m.checkResetInvariants()
	}
	penalty := m.rename(code, copies)
	c, err := m.execute()
	if err != nil {
		return Counters{}, err
	}
	c.Cycles += penalty
	return c, nil
}

// regime returns the divider regime rename applies: FastDividerValues, or
// SlowDividerValues for any other setting.
func (m *Machine) regime() DividerValues {
	if m.cfg.DividerValues == FastDividerValues {
		return FastDividerValues
	}
	return SlowDividerValues
}

// Readings reports how many readings the Machine has simulated — Run calls
// and RunCopies table misses, failed readings included — and how many
// RunCopies recalled from its table instead.
func (m *Machine) Readings() (simulated, recalled int) { return m.simulated, m.recalled }

// MustRun is like Run but panics on error (for code generated from validated
// instruction sets).
func (m *Machine) MustRun(code asmgen.Sequence) Counters {
	c, err := m.Run(code)
	if err != nil {
		panic(err)
	}
	return c
}

// refKind says where a template reference finds its value at rename.
type refKind uint8

const (
	refTemp    refKind = iota // an instruction temporary; arg is its id
	refReg                    // an explicit register operand; arg is its explicit index
	refFixed                  // an implicit register operand; arg is the register's family
	refMem                    // an explicit memory operand; arg is its explicit index
	refMemAddr                // only the base register of an explicit memory operand
	refFlags                  // status flags; arg is the isa.FlagSet read or written
)

// tmplRef is one value reference of a template µop, resolved against the
// variant: the operand kind and index lookups are done once, at build time.
type tmplRef struct {
	arg   int32
	kind  refKind
	merge bool // write of an 8- or 16-bit GPR: the µop also reads the old value
}

// tmplWrite is a written reference with its latency per divider regime
// (indexed by DividerValues), before rename clamps the latency of port-bound
// µops to at least one cycle.
type tmplWrite struct {
	lat [2]int32
	tmplRef
}

// tmplUop is one µop of a rename template: the static fields of its dynUop
// and its reads and writes as [start,end) ranges of Machine.tmplReads and
// Machine.tmplWrites.
type tmplUop struct {
	rdStart, rdEnd int32
	wrStart, wrEnd int32
	divOcc         [2]int32 // divider occupancy per divider regime
	portMask       uint16
	eliminated     bool
	divider        bool
	// ownReads marks a µop whose writes after the first also read (partial
	// register merges, memory base registers), so a read can be one of the
	// µop's own writes; only such µops need rename's own-read filter.
	ownReads bool
}

// tmplShape is a [start,end) range of Machine.tmplUops: one decoding of a
// variant.
type tmplShape struct {
	uopStart, uopEnd int32
	moveElim         bool // a register-to-register move rename may eliminate
}

// sseAVXKind is a variant's part in the SSE/AVX transition penalty.
type sseAVXKind uint8

const (
	sseAVXNone  sseAVXKind = iota
	sseAVXDirty            // an AVX variant with a YMM operand: dirties the upper halves
	sseAVXSSE              // a legacy SSE variant: pays the penalty while they are dirty
	sseAVXClean            // VZEROUPPER/VZEROALL: cleans the upper halves
)

// renameTmpl is the rename template of one variant: what rename needs of it
// that does not depend on the concrete operands. shapes[0] is the variant's
// decoding; shapes[1], present when sameRegs is non-zero, is the decoding
// when all explicit register operands (one bit per explicit operand index in
// sameRegs) name the same register — the same-register override or the zero
// idiom.
type renameTmpl struct {
	shapes   [2]tmplShape
	sameRegs uint16
	domain   domain
	sseAVX   sseAVXKind
}

// shapeOf returns the index in t.shapes of the decoding rename picks for
// inst: 1 when t has a same-register decoding and the registers it selects
// are equal, else 0.
func (t *renameTmpl) shapeOf(inst *asmgen.Inst) int {
	if t.sameRegs != 0 && explicitRegsEqual(inst, t.sameRegs) {
		return 1
	}
	return 0
}

// templateFor returns the index of the variant's rename template, building
// it on the first occurrence per Machine and interning its content in the
// table. A template whose table id this Machine built before is dropped
// for that one, so equal indices mean equal templates.
func (m *Machine) templateFor(in *isa.Instr) int32 {
	if ti, ok := m.tmplOf[in]; ok {
		return ti
	}
	nu, nr, nw := len(m.tmplUops), len(m.tmplReads), len(m.tmplWrites)
	perf := m.arch.Perf(in)
	t := renameTmpl{domain: domain(in.Domain)}
	var regs uint16
	for i, op := range in.ExplicitOperands() {
		if op.Class == isa.ClassYMM && in.Extension.IsAVX() {
			t.sseAVX = sseAVXDirty
		}
		if op.Kind == isa.OpReg {
			if i >= 16 {
				panic(fmt.Sprintf("pipesim: %s has a register operand at explicit index %d, max supported is 15", in.Name, i))
			}
			regs |= 1 << uint(i)
		}
	}
	if in.Extension.IsSSE() {
		t.sseAVX = sseAVXSSE
	}
	if in.Mnemonic == "VZEROUPPER" || in.Mnemonic == "VZEROALL" {
		t.sseAVX = sseAVXClean
	}
	move := isRegRegMove(in)
	t.shapes[0] = m.buildShape(in, perf, false, move)
	if bits.OnesCount16(regs) >= 2 && (perf.SameRegOverride != nil || perf.ZeroIdiom) {
		same := perf
		if perf.SameRegOverride != nil {
			same = perf.SameRegOverride
		}
		t.shapes[1] = m.buildShape(in, same, same.ZeroIdiom, move)
		t.sameRegs = regs
	}
	m.tmplKey = m.appendTmplKey(m.tmplKey[:0], &t)
	id := m.table.intern(m.tmplKey)
	ti, ok := m.tmplByID[id]
	if ok {
		m.tmplUops, m.tmplReads, m.tmplWrites = m.tmplUops[:nu], m.tmplReads[:nr], m.tmplWrites[:nw]
	} else {
		ti = idx32(len(m.tmpls))
		m.tmpls = append(m.tmpls, t)
		m.tableIDs = append(m.tableIDs, id)
		m.tmplByID[id] = ti
	}
	m.tmplOf[in] = ti
	return ti
}

// buildShape appends the template µops of one decoding of a variant.
// zeroIdiom drops the register reads the idiom breaks (and, where the
// generation eliminates zero idioms, the execution port); move marks a
// plain register-to-register move.
func (m *Machine) buildShape(in *isa.Instr, perf *uarch.InstrPerf, zeroIdiom, move bool) tmplShape {
	numPorts := m.rec.NumPorts
	sh := tmplShape{uopStart: idx32(len(m.tmplUops)), moveElim: perf.MoveElim && move}
	for ui := range perf.Uops {
		spec := &perf.Uops[ui]
		occ := idx32(spec.DivOccupancy)
		tu := tmplUop{
			divOcc:     [2]int32{occ, occ},
			portMask:   portMaskFor(spec.Ports, numPorts),
			eliminated: len(spec.Ports) == 0,
			divider:    spec.Divider,
		}
		if spec.Divider {
			tu.divOcc[FastDividerValues] = idx32(perf.DivOccupancyLowValues)
		}
		if zeroIdiom && perf.ZeroIdiomElim {
			tu.eliminated = true
			tu.portMask = 0
		}
		// Store-address µops only depend on the address registers of the
		// memory operand, not on the previous memory contents.
		tu.rdStart = idx32(len(m.tmplReads))
		for _, ref := range spec.Reads {
			if zeroIdiom && ref.Kind == uarch.ValOperand && in.Operands[ref.Index].Kind == isa.OpReg {
				continue // the idiom breaks the dependency on the register
			}
			if r, ok := tmplRefFor(in, ref, false, spec.StoreAddr); ok {
				m.tmplReads = append(m.tmplReads, r)
			}
		}
		tu.rdEnd = idx32(len(m.tmplReads))
		tu.wrStart = idx32(len(m.tmplWrites))
		for wi, ref := range spec.Writes {
			r, ok := tmplRefFor(in, ref, true, false)
			if !ok {
				continue
			}
			lat := spec.LatencyTo(wi)
			if spec.Load {
				lat += m.rec.LoadLatency
			}
			fast := lat
			if spec.Divider && perf.LatencyLowValues > 0 {
				fast = perf.LatencyLowValues
			}
			if (r.merge || r.kind == refMem) && idx32(len(m.tmplWrites)) > tu.wrStart {
				tu.ownReads = true
			}
			m.tmplWrites = append(m.tmplWrites, tmplWrite{lat: [2]int32{idx32(lat), idx32(fast)}, tmplRef: r})
		}
		tu.wrEnd = idx32(len(m.tmplWrites))
		m.tmplUops = append(m.tmplUops, tu)
	}
	sh.uopEnd = idx32(len(m.tmplUops))
	return sh
}

// tmplRefFor resolves a µop value reference against the variant's operand
// list. addrOnly narrows a memory read to its base register (store-address
// µops). It reports false for references that never name a value: out of
// range, immediates, implicit operands without a fixed register, and flag
// operands that read (or write) no flag.
func tmplRefFor(in *isa.Instr, ref uarch.ValRef, write, addrOnly bool) (tmplRef, bool) {
	if ref.Kind == uarch.ValTemp {
		return tmplRef{kind: refTemp, arg: idx32(ref.Index)}, true
	}
	if ref.Index < 0 || ref.Index >= len(in.Operands) {
		return tmplRef{}, false
	}
	op := &in.Operands[ref.Index]
	// Explicit operands lead Operands (isa.NewSet enforces it), so an
	// explicit operand's index is also its index in asmgen.Inst.Ops.
	expl := idx32(ref.Index)
	switch op.Kind {
	case isa.OpReg:
		// Writing an 8- or 16-bit part of a general-purpose register merges
		// with the previous contents (the cause of partial-register stalls,
		// Section 5.2.1); the merge is modelled as an extra read of the old
		// value.
		merge := write && (op.Class == isa.ClassGPR8 || op.Class == isa.ClassGPR16)
		if !op.Implicit {
			return tmplRef{kind: refReg, arg: expl, merge: merge}, true
		}
		if op.FixedReg == isa.RegNone {
			return tmplRef{}, false
		}
		return tmplRef{kind: refFixed, arg: idx32(int(op.FixedReg.Family())), merge: merge}, true
	case isa.OpMem:
		if op.Implicit {
			return tmplRef{}, false
		}
		if addrOnly {
			return tmplRef{kind: refMemAddr, arg: expl}, true
		}
		return tmplRef{kind: refMem, arg: expl}, true
	case isa.OpFlags:
		flags := op.ReadFlags
		if write {
			flags = op.WriteFlags
		}
		if flags.Empty() {
			return tmplRef{}, false
		}
		return tmplRef{kind: refFlags, arg: int32(flags)}, true
	}
	return tmplRef{}, false
}

// newVal appends a renamed value to the arena and returns its index.
func (m *Machine) newVal(ready int32, known bool, dom domain) int32 {
	idx := idx32(len(m.vals))
	m.vals = append(m.vals, dynVal{ready: ready, waiters: -1, known: known, domain: dom})
	return idx
}

// liveInReg returns the latest renamed value of register family fam,
// materializing a ready live-in value on first touch.
func (m *Machine) liveInReg(fam isa.Reg, dom domain) int32 {
	if v := m.regBoard[fam]; v >= 0 {
		return v
	}
	v := m.newVal(0, true, dom)
	m.regBoard[fam] = v
	return v
}

// liveInFlag is liveInReg for a single status flag.
func (m *Machine) liveInFlag(f isa.Flag) int32 {
	if v := m.flagBoard[f]; v >= 0 {
		return v
	}
	v := m.newVal(0, true, intDomain)
	m.flagBoard[f] = v
	return v
}

// liveInMem is liveInReg for a renamed memory slot.
func (m *Machine) liveInMem(addr uint64, dom domain) int32 {
	if v, ok := m.memBoard[addr]; ok {
		return v
	}
	v := m.newVal(0, true, dom)
	m.memBoard[addr] = v
	return v
}

// growTemps ensures the temp slot tables cover index idx.
func (m *Machine) growTemps(idx int32) {
	for len(m.tempVal) <= int(idx) {
		m.tempVal = append(m.tempVal, -1)
		m.tempEpoch = append(m.tempEpoch, 0)
	}
}

// appendWrite records one written value (and its latency) for the µop under
// construction.
func (m *Machine) appendWrite(v, lat int32) {
	m.writeIdx = append(m.writeIdx, v)
	m.writeLat = append(m.writeLat, lat)
}

// rename performs the program-order pre-pass over copies concatenated
// copies of code: it binds every instruction to its variant's rename
// template, instantiates the template's µops against the concrete operands,
// resolves register/flag/memory dependencies to renamed values, decides
// move elimination, and computes the SSE/AVX transition penalty. A run of
// one instance repeated (a port-usage kernel's blocking instructions) binds
// once, across copy boundaries too. All state it builds lives in the
// Machine's arenas; steady-state calls allocate nothing.
func (m *Machine) rename(code asmgen.Sequence, copies int) int {
	penalty := 0
	avxDirty := false
	depMoveCounter := 0
	ssePenalty := m.rec.SSEAVXPenalty
	regime := m.regime()

	var (
		lastInst    *asmgen.Inst
		lastVariant *isa.Instr
		ti          int32
		t           *renameTmpl
		shape       tmplShape
	)
	for ; copies > 0; copies-- {
		for _, inst := range code {
			if inst != lastInst {
				lastInst = inst
				if inst.Variant != lastVariant {
					lastVariant = inst.Variant
					ti = m.templateFor(inst.Variant)
				}
				t = &m.tmpls[ti]
				shape = t.shapes[t.shapeOf(inst)]
			}

			// SSE/AVX transition penalty (Section 5.1.1 explains why blocking
			// instructions are chosen per extension family to avoid this).
			if ssePenalty > 0 {
				switch t.sseAVX {
				case sseAVXDirty:
					avxDirty = true
				case sseAVXSSE:
					if avxDirty {
						penalty += ssePenalty
						avxDirty = false
					}
				case sseAVXClean:
					avxDirty = false
				}
			}

			// Move elimination: a register-to-register move whose source is not
			// produced inside the measured code is always eliminated; inside a
			// dependent chain roughly every third move is eliminated (the
			// behaviour the paper reports in Section 5.2.1).
			moveElim := false
			if shape.moveElim {
				if !m.produced[inst.Ops[1].Reg.Family()] {
					moveElim = true
				} else {
					depMoveCounter++
					moveElim = depMoveCounter%3 == 0
				}
			}

			m.tempGen++ // invalidates the previous instruction's temp slots

			for ui := shape.uopStart; ui < shape.uopEnd; ui++ {
				tu := &m.tmplUops[ui]
				m.uops = append(m.uops, dynUop{
					portMask:   tu.portMask,
					eliminated: tu.eliminated,
					divider:    tu.divider,
					domain:     t.domain,
					divOcc:     tu.divOcc[regime],
				})
				du := &m.uops[len(m.uops)-1]
				if moveElim {
					du.eliminated = true
					du.portMask = 0
				}
				du.rdStart = idx32(len(m.readIdx))
				for ri := tu.rdStart; ri < tu.rdEnd; ri++ {
					m.renameRead(inst, m.tmplReads[ri], t.domain)
				}
				// Writes (partial-register merges append extra reads).
				du.wrStart = idx32(len(m.writeIdx))
				for wi := tu.wrStart; wi < tu.wrEnd; wi++ {
					w := &m.tmplWrites[wi]
					lat := w.lat[regime]
					if lat < 1 && !du.eliminated {
						lat = 1
					}
					m.renameWrite(inst, w.tmplRef, t.domain, lat)
				}
				du.rdEnd = idx32(len(m.readIdx))
				du.wrEnd = idx32(len(m.writeIdx))

				// A µop never waits for values it produces itself (this can
				// otherwise happen through partial-register merge reads when two
				// written operands alias the same register).
				if tu.ownReads {
					m.dropOwnReads(du)
				}
			}
		}
	}
	return penalty
}

// dropOwnReads removes from a µop's read segment the values in its own write
// segment; the read segment is the tail of readIdx.
func (m *Machine) dropOwnReads(du *dynUop) {
	if du.wrEnd == du.wrStart || du.rdEnd == du.rdStart {
		return
	}
	kept := du.rdStart
	for ri := du.rdStart; ri < du.rdEnd; ri++ {
		v := m.readIdx[ri]
		own := false
		for wi := du.wrStart; wi < du.wrEnd; wi++ {
			if m.writeIdx[wi] == v {
				own = true
				break
			}
		}
		if !own {
			m.readIdx[kept] = v
			kept++
		}
	}
	du.rdEnd = kept
	m.readIdx = m.readIdx[:kept]
}

// explicitOp returns the concrete explicit operand at index i, or the zero
// Operand when the instance has none there.
func explicitOp(inst *asmgen.Inst, i int32) asmgen.Operand {
	if int(i) < len(inst.Ops) {
		return inst.Ops[i]
	}
	return asmgen.Operand{}
}

// renameRead appends the renamed values a template read consumes to the
// current µop's read segment.
func (m *Machine) renameRead(inst *asmgen.Inst, r tmplRef, dom domain) {
	switch r.kind {
	case refTemp:
		if r.arg < 0 {
			// Defensive: a read of an impossible temp is treated as ready.
			m.readIdx = append(m.readIdx, m.newVal(0, true, intDomain))
			return
		}
		m.growTemps(r.arg)
		if m.tempEpoch[r.arg] != m.tempGen {
			// A read of a temp that has no producer (defensive): treat as
			// ready.
			m.tempVal[r.arg] = m.newVal(0, true, intDomain)
			m.tempEpoch[r.arg] = m.tempGen
		}
		m.readIdx = append(m.readIdx, m.tempVal[r.arg])
	case refReg:
		if reg := explicitOp(inst, r.arg).Reg; reg != isa.RegNone {
			m.readIdx = append(m.readIdx, m.liveInReg(reg.Family(), dom))
		}
	case refFixed:
		m.readIdx = append(m.readIdx, m.liveInReg(isa.Reg(r.arg), dom))
	case refMem, refMemAddr:
		op := explicitOp(inst, r.arg)
		if !op.IsMem() {
			return
		}
		mem := op.Mem
		m.readIdx = append(m.readIdx, m.liveInReg(mem.Base.Family(), intDomain))
		if r.kind == refMem {
			// A memory read also depends on the latest store to the same
			// address (store-to-load forwarding resolves through the renamed
			// memory value).
			m.readIdx = append(m.readIdx, m.liveInMem(mem.Addr, dom))
		}
	case refFlags:
		// Flags written together share one value (renameWrite), so a value
		// is appended once per run of flags that map to it; a repeat would
		// only double a pending count that one wake clears.
		flags := isa.FlagSet(r.arg)
		last := int32(-1)
		for f := isa.Flag(0); f < isa.NumFlags; f++ {
			if flags.Has(f) {
				if v := m.liveInFlag(f); v != last {
					m.readIdx = append(m.readIdx, v)
					last = v
				}
			}
		}
	}
}

// renameWrite appends freshly renamed values for a template write to the
// current µop's write segment (with latency lat), and appends any reads the
// write implies (partial-register merges, memory base registers) to the read
// segment.
func (m *Machine) renameWrite(inst *asmgen.Inst, r tmplRef, dom domain, lat int32) {
	switch r.kind {
	case refTemp:
		v := m.newVal(0, false, dom)
		if r.arg >= 0 {
			m.growTemps(r.arg)
			m.tempVal[r.arg] = v
			m.tempEpoch[r.arg] = m.tempGen
		}
		m.appendWrite(v, lat)
	case refReg, refFixed:
		fam := isa.Reg(r.arg)
		if r.kind == refReg {
			reg := explicitOp(inst, r.arg).Reg
			if reg == isa.RegNone {
				return
			}
			fam = reg.Family()
		}
		if r.merge {
			m.readIdx = append(m.readIdx, m.liveInReg(fam, dom))
		}
		v := m.newVal(0, false, dom)
		m.regBoard[fam] = v
		m.produced[fam] = true
		m.appendWrite(v, lat)
	case refMem:
		op := explicitOp(inst, r.arg)
		if !op.IsMem() {
			return
		}
		mem := op.Mem
		m.readIdx = append(m.readIdx, m.liveInReg(mem.Base.Family(), intDomain))
		v := m.newVal(0, false, dom)
		m.memBoard[mem.Addr] = v
		m.appendWrite(v, lat)
	case refFlags:
		// The flags of one write share their producer, latency and domain,
		// so one value stands for them all. tmplRefFor drops an empty set.
		v := m.newVal(0, false, intDomain)
		flags := isa.FlagSet(r.arg)
		for f := isa.Flag(0); f < isa.NumFlags; f++ {
			if flags.Has(f) {
				m.flagBoard[f] = v
			}
		}
		m.appendWrite(v, lat)
	}
}

// explicitRegsEqual reports whether the explicit register operands of inst
// selected by mask (one bit per explicit operand index) all name the same
// register.
func explicitRegsEqual(inst *asmgen.Inst, mask uint16) bool {
	first := inst.Ops[bits.TrailingZeros16(mask)].Reg
	for mk := mask & (mask - 1); mk != 0; mk &= mk - 1 {
		if inst.Ops[bits.TrailingZeros16(mk)].Reg != first {
			return false
		}
	}
	return true
}

// isRegRegMove reports whether the variant is a plain register-to-register
// move with two explicit register operands.
func isRegRegMove(in *isa.Instr) bool {
	expl := in.ExplicitOperands()
	if len(expl) != 2 {
		return false
	}
	dst, src := &expl[0], &expl[1]
	return dst.Kind == isa.OpReg && src.Kind == isa.OpReg &&
		dst.Write && !dst.Read && src.Read && !src.Write
}

// bypassDelay returns the extra forwarding latency when a value produced in
// domain from is consumed in domain to (Section 5.2.1: bypass delays between
// integer and floating-point SIMD operations).
func bypassDelay(from, to domain) int32 {
	if from == to {
		return 0
	}
	const vecInt, fp = domain(isa.DomainVecInt), domain(isa.DomainFP)
	if (from == vecInt && to == fp) || (from == fp && to == vecInt) {
		return 1
	}
	return 0
}

// wireUop computes the wake-up bookkeeping for a µop at issue time: pending
// (reads whose producer has not yet dispatched) and readyAt (the latest ready
// time over the already-known reads, bypass-adjusted for port-bound µops).
// Every unknown read registers a waiter node on the value, so the µop is
// notified — instead of re-polled — when the producer dispatches. Returns the
// pending count.
func (m *Machine) wireUop(ui int32, u *dynUop) int32 {
	pending := int32(0)
	readyAt := int32(0)
	for ri := u.rdStart; ri < u.rdEnd; ri++ {
		v := &m.vals[m.readIdx[ri]]
		if v.known {
			t := v.ready
			if !u.eliminated {
				t += bypassDelay(v.domain, u.domain)
			}
			if t > readyAt {
				readyAt = t
			}
			continue
		}
		pending++
		m.wnUop = append(m.wnUop, ui)
		m.wnNext = append(m.wnNext, v.waiters)
		v.waiters = idx32(len(m.wnUop) - 1)
	}
	u.pending = pending
	u.readyAt = readyAt
	return pending
}

// wake delivers a now-known value to every µop waiting on it: the consumer's
// readyAt absorbs the value's ready time (plus the bypass delay between the
// producing and consuming domains for port-bound µops) and its pending count
// drops. The last input's arrival moves the µop onward: port-bound µops enter
// the wake-up heap keyed by their final readyAt, rename-handled µops enter
// the completion queue. The waiter list is consumed exactly once.
func (m *Machine) wake(vi int32) {
	v := &m.vals[vi]
	for wi := v.waiters; wi >= 0; wi = m.wnNext[wi] {
		ui := m.wnUop[wi]
		u := &m.uops[ui]
		t := v.ready
		if !u.eliminated {
			t += bypassDelay(v.domain, u.domain)
		}
		if t > u.readyAt {
			u.readyAt = t
		}
		if u.pending--; u.pending == 0 {
			if u.eliminated {
				m.elimReady = append(m.elimReady, ui)
			} else {
				m.pushWake(u.readyAt, ui)
			}
		}
	}
	v.waiters = -1
}

// pushWake inserts a (readyAt, µop) pair into the wake-up min-heap. The pair
// is packed into one uint64 with readyAt in the high bits, so heap order is
// readyAt first, µop index (program order) second.
func (m *Machine) pushWake(readyAt, ui int32) {
	h := append(m.wakeHeap, uint64(uint32(readyAt))<<32|uint64(uint32(ui)))
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	m.wakeHeap = h
}

// popWake removes the minimum entry of the wake-up heap.
func (m *Machine) popWake() {
	h := m.wakeHeap
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		small := l
		if r := l + 1; r < n && h[r] < h[l] {
			small = r
		}
		if h[i] <= h[small] {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	m.wakeHeap = h
}

// execute runs the issue/dispatch loop. It is event-driven at both
// granularities: within a cycle, dispatch walks only the ready queue — µops
// whose last input arrived (wake-up lists keyed by producing value replace
// the per-cycle rescan of the whole scheduler window) — and across cycles,
// spans in which provably nothing can issue, complete or dispatch are skipped
// in one step to the next wake-up event. A run that has not drained when the
// deadlock guard fires or MaxCycles runs out is an error: its counters would
// be truncated.
func (m *Machine) execute() (Counters, error) {
	numPorts := m.rec.NumPorts
	c := Counters{IssuedUops: len(m.uops)}

	issueWidth := m.rec.IssueWidth
	schedSize := m.rec.schedulerSize
	allPorts := uint16(1)<<uint(numPorts) - 1

	nextIssue := 0     // next µop (program order) to issue
	schedCount := 0    // issued µops still waiting for an execution port
	elimWaiting := 0   // issued rename-handled µops not yet completed
	dividerFreeAt := 0 // next cycle the divider can accept a µop
	finish := 0

	// readyUnion conservatively over-approximates the union of the port
	// masks in the ready queue: once dispatch has claimed every port in it,
	// no remaining ready µop can dispatch this cycle and the walk stops. It
	// is recomputed exactly on every full walk.
	var readyUnion uint16

	cycle := 0
	idleCycles := 0
	drained := false
	for cycle < m.rec.maxCycles {
		// Issue stage: deliver up to issueWidth µops into the scheduler (or
		// complete them directly if they need no execution port). The
		// scheduler window counts only µops still waiting for dispatch; a
		// µop's entry is reclaimed at the end of its dispatch cycle (see
		// Config.SchedulerSize).
		issued := 0
		for nextIssue < len(m.uops) && issued < issueWidth && schedCount < schedSize {
			ui := idx32(nextIssue)
			nextIssue++
			issued++
			u := &m.uops[ui]
			if u.eliminated {
				c.ElimUops++
				elimWaiting++
				if m.wireUop(ui, u) == 0 {
					m.elimReady = append(m.elimReady, ui)
				}
				continue
			}
			schedCount++
			if m.wireUop(ui, u) == 0 {
				if u.readyAt <= idx32(cycle) {
					// Ready at issue (the common case for independent
					// code): skip the heap round-trip, the µop arrives
					// this very cycle. Issue order is program order, so
					// these arrivals are pre-sorted.
					m.arrivals = append(m.arrivals, ui)
				} else {
					m.pushWake(u.readyAt, ui)
				}
			}
		}

		// Rename-handled µops complete as soon as their inputs are known;
		// their outputs are ready when their inputs are (zero latency, no
		// bypass). Completing one may wake further rename-handled µops,
		// which complete in the same cycle (the queue grows mid-walk),
		// matching the in-order scan this replaces: a rename-time chain
		// resolves in one cycle.
		for ei := 0; ei < len(m.elimReady); ei++ {
			ui := m.elimReady[ei]
			u := &m.uops[ui]
			ready := idx32(cycle)
			if u.readyAt > ready {
				ready = u.readyAt
			}
			for wi := u.wrStart; wi < u.wrEnd; wi++ {
				vi := m.writeIdx[wi]
				v := &m.vals[vi]
				v.ready = ready
				v.known = true
				v.domain = u.domain
				if v.waiters >= 0 {
					m.wake(vi)
				}
			}
			if int(ready) > finish {
				finish = int(ready)
			}
			elimWaiting--
		}
		m.elimReady = m.elimReady[:0]

		// Collect the µops whose wake-up time has arrived (joining any
		// ready-at-issue arrivals from above) and merge them into the ready
		// queue in program order (the heap yields them in ready-time order,
		// so a sort is needed before the merge).
		popped := false
		for len(m.wakeHeap) > 0 {
			top := m.wakeHeap[0]
			if int(top>>32) > cycle {
				break
			}
			m.popWake()
			m.arrivals = append(m.arrivals, int32(uint32(top)))
			popped = true
		}
		if len(m.arrivals) > 0 {
			if popped {
				// Heap pops arrive in ready-time order and may interleave
				// with this cycle's pre-sorted issue-direct arrivals; only
				// then is a sort needed.
				slices.Sort(m.arrivals)
			}
			for _, ui := range m.arrivals {
				readyUnion |= m.uops[ui].portMask
			}
			switch {
			case len(m.readyQ) == 0:
				m.readyQ, m.arrivals = m.arrivals, m.readyQ
			case m.readyQ[len(m.readyQ)-1] < m.arrivals[0]:
				// Every arrival is younger than the whole queue (the usual
				// case behind a one-port bottleneck): no merge needed.
				m.readyQ = append(m.readyQ, m.arrivals...)
			default:
				merged := m.readyScratch[:0]
				i, j := 0, 0
				for i < len(m.readyQ) && j < len(m.arrivals) {
					if m.readyQ[i] < m.arrivals[j] {
						merged = append(merged, m.readyQ[i])
						i++
					} else {
						merged = append(merged, m.arrivals[j])
						j++
					}
				}
				merged = append(merged, m.readyQ[i:]...)
				merged = append(merged, m.arrivals[j:]...)
				m.readyQ, m.readyScratch = merged, m.readyQ[:0]
			}
			m.arrivals = m.arrivals[:0]
		}

		// Dispatch stage: oldest-first over the ready µops only, one µop per
		// port per cycle. Identical port claims to the old full-window scan:
		// the ready queue is in program order and non-ready µops could never
		// claim a port anyway.
		var takenMask uint16
		dispatchedAny := false
		readyDivBlocked := false
		if len(m.readyQ) > 0 {
			kept := m.readyQ[:0]
			var keptUnion uint16
			fullWalk := true
			for qi, n := 0, len(m.readyQ); qi < n; qi++ {
				if readyUnion&^takenMask == 0 {
					// Every port any ready µop could use is taken: the rest
					// of the queue carries over to the next cycle as is.
					kept = append(kept, m.readyQ[qi:n]...)
					fullWalk = false
					break
				}
				ui := m.readyQ[qi]
				u := &m.uops[ui]
				avail := u.portMask &^ takenMask
				if avail == 0 {
					kept = append(kept, ui)
					keptUnion |= u.portMask
					continue
				}
				if u.divider && cycle < dividerFreeAt {
					kept = append(kept, ui)
					keptUnion |= u.portMask
					readyDivBlocked = true
					continue
				}
				p := choosePort(avail, &m.portLoad)
				takenMask |= 1 << uint(p)
				m.portLoad[p]++
				c.PortUops[p]++
				c.TotalUops++
				dispatchedAny = true
				schedCount--
				if u.divider {
					occ := int(u.divOcc)
					if occ < 1 {
						occ = 1
					}
					dividerFreeAt = cycle + occ
				}
				// Write latencies were clamped to >= 1 at rename, so dispatch
				// needs no re-clamp here.
				for wi := u.wrStart; wi < u.wrEnd; wi++ {
					vi := m.writeIdx[wi]
					v := &m.vals[vi]
					v.ready = idx32(cycle) + m.writeLat[wi]
					v.known = true
					v.domain = u.domain
					if int(v.ready) > finish {
						finish = int(v.ready)
					}
					if v.waiters >= 0 {
						m.wake(vi)
					}
				}
				if u.wrStart == u.wrEnd && cycle+1 > finish {
					finish = cycle + 1
				}
				if takenMask == allPorts {
					kept = append(kept, m.readyQ[qi+1:n]...)
					fullWalk = false
					break
				}
			}
			m.readyQ = kept
			if fullWalk {
				readyUnion = keptUnion
			}
		}

		cycle++
		if nextIssue >= len(m.uops) && schedCount == 0 && elimWaiting == 0 {
			drained = true
			break
		}
		if issued == 0 && !dispatchedAny {
			// Deadlock guard: µops stuck waiting for values that are blocked
			// forever (a modelling bug rather than a property of the code
			// under test); a divider occupancy can legitimately stall
			// dispatch for a bounded number of cycles, so allow a generous
			// margin.
			idleCycles++
			if idleCycles > 10000 {
				break
			}
			// Event-driven fast-forward: an idle cycle changes nothing —
			// issue stays blocked (the scheduler did not drain), pending
			// eliminated µops keep waiting for a dispatch, and no value
			// becomes known. The next possible event falls out of the
			// wake-up structures: the heap's earliest entry, or the divider
			// becoming free when a ready divider µop is blocked on it. µops
			// still pending need another dispatch first, so they cannot
			// precede that event; ready µops whose ports are unclaimable
			// (an empty port mask on this generation) never produce one.
			// The skipped cycles are charged against the same deadlock
			// budget the one-by-one walk would have used; when no event can
			// ever occur, the huge skip runs the budget out, as before.
			next := -1
			if len(m.wakeHeap) > 0 {
				next = int(m.wakeHeap[0] >> 32)
			}
			if readyDivBlocked && (next < 0 || dividerFreeAt < next) {
				next = dividerFreeAt
			}
			skip := 1 << 30
			if next >= 0 {
				skip = next - cycle
			}
			if skip > 0 {
				if maxIdle := 10001 - idleCycles; skip > maxIdle {
					skip = maxIdle // the guard fires mid-wait, as before
				}
				if cycle+skip > m.rec.maxCycles {
					skip = m.rec.maxCycles - cycle
				}
				if skip > 0 {
					cycle += skip
					idleCycles += skip
					if idleCycles > 10000 {
						break
					}
				}
			}
		} else {
			idleCycles = 0
		}
	}
	// Return queue capacity to the Machine (a deadlocked run may leave
	// entries behind; Reset truncates them either way).
	m.readyQ = m.readyQ[:0]
	m.arrivals = m.arrivals[:0]
	m.wakeHeap = m.wakeHeap[:0]
	m.elimReady = m.elimReady[:0]

	if !drained {
		why := fmt.Sprintf("MaxCycles (%d) ran out", m.rec.maxCycles)
		if idleCycles > 10000 {
			why = "no µop issued or dispatched for 10000 cycles (deadlock)"
		}
		return Counters{}, fmt.Errorf("pipesim: %s: run did not drain: %s after issuing %d of %d µops and dispatching %d",
			m.arch.Name(), why, nextIssue, len(m.uops), c.TotalUops)
	}
	if finish < cycle {
		finish = cycle
	}
	c.Cycles = finish
	return c, nil
}

// portMaskFor converts a µop's allowed-port list into a bitmask, dropping
// ports the generation does not have (matching the old slice-walking
// choosePort, which skipped them).
func portMaskFor(ports []int, numPorts int) uint16 {
	var mask uint16
	for _, p := range ports {
		if p >= 0 && p < numPorts {
			mask |= 1 << uint(p)
		}
	}
	return mask
}

// choosePort picks the free, allowed port with the lowest accumulated load
// (a simple load-balancing heuristic similar in spirit to the hardware's
// port-binding policy) from a non-empty availability mask. Ties go to the
// lowest-numbered port; the µop tables list ports in ascending order (pinned
// by TestPortSetsAscending in package uarch), so this reproduces the
// first-listed-port-wins tie-break of the earlier slice-walking
// implementation exactly.
func choosePort(avail uint16, load *[MaxPorts]int32) int {
	best := -1
	for mk := avail; mk != 0; mk &= mk - 1 {
		p := bits.TrailingZeros16(mk)
		if best < 0 || load[p] < load[best] {
			best = p
		}
	}
	return best
}
