package core

import (
	"math/bits"
	"sort"

	"uopsinfo/internal/isa"
	"uopsinfo/internal/measure"
	"uopsinfo/internal/uarch"
)

// BlockingInstr is a blocking instruction for a port combination: a 1-µop
// instruction whose µop can use all ports of the combination but no others
// (Section 5.1.1). For the store-unit combinations the 2-µop MOV-to-memory
// instruction is used, as in the paper.
type BlockingInstr struct {
	Instr *isa.Instr
	// Ports is the port combination the instruction blocks.
	Ports []int
	// Throughput is the measured cycles per instruction of the instruction
	// in isolation (the selection criterion within a group).
	Throughput float64
	// UopsOnCombo is the number of µops one instance contributes to the
	// blocked combination (1 for ordinary blocking instructions; also 1 for
	// the store instruction on each of the two store combinations).
	UopsOnCombo float64
}

// ComboKey returns the canonical key of the blocked combination.
func (b BlockingInstr) ComboKey() string { return uarch.PortComboKey(b.Ports) }

// BlockingSet holds the discovered blocking instructions, separately for use
// with SSE and with AVX instructions (mixing the two would incur transition
// penalties, Section 5.1.1). Instructions that are neither SSE nor AVX can
// appear in both maps.
type BlockingSet struct {
	// SSE maps combination keys to blocking instructions usable when the
	// instruction under test is an SSE (or non-vector) instruction.
	SSE map[string]BlockingInstr
	// AVX maps combination keys to blocking instructions usable when the
	// instruction under test is an AVX instruction.
	AVX map[string]BlockingInstr
}

// For returns the appropriate per-combination map for the given instruction
// under test.
func (bs *BlockingSet) For(in *isa.Instr) map[string]BlockingInstr {
	if in.Extension.IsAVX() {
		return bs.AVX
	}
	return bs.SSE
}

// sortedSet is a blocking set's combination keys in the order of
// Algorithm 1 (sortedCombos), for SSE and for AVX instructions under test.
type sortedSet struct {
	of       *BlockingSet
	sse, avx []string
}

// combos returns the keys of the combinations of the Characterizer's
// blocking set for the instruction under test, in the order of Algorithm 1.
// It sorts the set once, and again only when another set is installed.
func (c *Characterizer) combos(in *isa.Instr) []string {
	if c.sorted.of != c.blocking {
		c.sorted = sortedSet{of: c.blocking, sse: sortedCombos(c.blocking.SSE), avx: sortedCombos(c.blocking.AVX)}
	}
	if in.Extension.IsAVX() {
		return c.sorted.avx
	}
	return c.sorted.sse
}

// sortedCombos returns the port combinations of the given map sorted by size
// (and lexicographically within a size), the iteration order required by
// Algorithm 1.
func sortedCombos(m map[string]BlockingInstr) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if len(keys[i]) != len(keys[j]) {
			return len(keys[i]) < len(keys[j])
		}
		return keys[i] < keys[j]
	})
	return keys
}

// blockingCandidate reports whether the variant may serve as an ordinary
// (non-store) blocking-instruction candidate: the paper excludes system
// instructions, serializing instructions, zero-latency (eliminable)
// instructions, PAUSE, and instructions that can change the control flow
// based on a register value; additionally only 1-µop instructions are usable,
// so memory operands, dividers and prefixed instructions are excluded, as are
// instructions with an implicit operand that is both read and written (their
// copies cannot be made independent).
func blockingCandidate(in *isa.Instr) bool {
	if in.IsSystem || in.IsSerializing || in.ControlFlow || in.IsNOP ||
		in.UsesDivider || in.HasLock || in.HasRep || in.MayMoveElim {
		return false
	}
	if in.Mnemonic == "PAUSE" {
		return false
	}
	// Memory operands that are actually accessed make the instruction more
	// than one µop; pure address-generation operands (LEA) are fine and LEA
	// is in fact the only blocking candidate for the AGU-free LEA ports.
	for _, op := range in.Operands {
		if op.Kind == isa.OpMem && (op.Read || op.Write) {
			return false
		}
	}
	for _, op := range in.Operands {
		if op.Implicit && op.Read && op.Write {
			return false
		}
	}
	// At least one explicit register operand is needed so that independent
	// copies can be formed.
	for _, op := range in.ExplicitOperands() {
		if op.Kind == isa.OpReg {
			return true
		}
	}
	return false
}

// FindBlockingInstructions discovers the blocking instructions for all port
// combinations by measuring every candidate in isolation, grouping the 1-µop
// candidates by the set of ports they use, and selecting the instruction with
// the highest throughput from each group (Section 5.1.1). MOV to memory is
// used for the store-address and store-data combinations.
//
// The discovery runs sequentially; use DiscoverBlocking to shard the candidate
// measurements across parallel worker stacks.
func (c *Characterizer) FindBlockingInstructions() (*BlockingSet, error) {
	return c.findBlocking(Options{})
}

// DiscoverBlocking discovers the blocking instructions, shards the candidate
// isolation measurements across opts.Workers forked stacks (like
// CharacterizeAll shards variants), and installs the result on the
// Characterizer. The discovered set is identical for any worker count: the
// per-candidate profiles are collected into a slice indexed by candidate, and
// the group-and-select fold then runs sequentially in candidate order.
// opts.BlockingProgress, if set, is called after each candidate.
func (c *Characterizer) DiscoverBlocking(opts Options) (*BlockingSet, error) {
	bs, err := c.findBlocking(opts)
	if err != nil {
		return nil, err
	}
	c.blocking = bs
	return bs, nil
}

// SetBlocking installs an already-discovered blocking set, e.g. one restored
// from a persistent store. It replaces any previously discovered set and must
// not be called while a characterization run is in flight.
func (c *Characterizer) SetBlocking(bs *BlockingSet) { c.blocking = bs }

// isolation is the measured isolation profile of one blocking candidate. ok is
// false for candidates whose measurement failed (they are skipped, matching
// the sequential behaviour).
type isolation struct {
	ports []int
	tp    float64
	uops  float64
	ok    bool
}

func (c *Characterizer) findBlocking(opts Options) (*BlockingSet, error) {
	var candidates []*isa.Instr
	for _, in := range c.gen.set.Instrs() {
		if blockingCandidate(in) {
			candidates = append(candidates, in)
		}
	}
	profiles, err := c.isolationProfiles(candidates, opts)
	if err != nil {
		return nil, err
	}

	bs := &BlockingSet{
		SSE: make(map[string]BlockingInstr),
		AVX: make(map[string]BlockingInstr),
	}
	type group struct {
		best BlockingInstr
		ok   bool
	}
	sseGroups := make(map[string]*group)
	avxGroups := make(map[string]*group)

	for i, in := range candidates {
		p := profiles[i]
		if !p.ok {
			continue
		}
		if p.uops < 0.6 || p.uops > 1.4 {
			continue // not a 1-µop instruction
		}
		if len(p.ports) == 0 {
			continue // handled at rename; a "zero-latency" instruction
		}
		key := uarch.PortComboKey(p.ports)
		cand := BlockingInstr{Instr: in, Ports: p.ports, Throughput: p.tp, UopsOnCombo: 1}
		update := func(groups map[string]*group) {
			gr, ok := groups[key]
			if !ok {
				groups[key] = &group{best: cand, ok: true}
				return
			}
			if cand.Throughput < gr.best.Throughput {
				gr.best = cand
			}
		}
		if !in.Extension.IsAVX() {
			update(sseGroups)
		}
		if !in.Extension.IsSSE() {
			update(avxGroups)
		}
	}
	for key, gr := range sseGroups {
		bs.SSE[key] = gr.best
	}
	for key, gr := range avxGroups {
		bs.AVX[key] = gr.best
	}

	// Store and load port combinations (the MOV instruction from a
	// general-purpose register to memory, and the plain load).
	if err := c.addMemoryBlocking(bs); err != nil {
		return nil, err
	}
	return bs, nil
}

// isolationProfiles measures the isolation profile of every candidate,
// sharded across opts.Workers forks. The returned slice is indexed by
// candidate so callers can fold it in candidate order regardless of which
// worker measured what.
func (c *Characterizer) isolationProfiles(cands []*isa.Instr, opts Options) ([]isolation, error) {
	profiles := make([]isolation, len(cands))
	sink := &progressSink{total: len(cands), fn: opts.BlockingProgress}
	err := c.shard(opts.Context, opts.Workers, len(cands), sink, func(w *Characterizer, i int) string {
		profiles[i] = w.profileCandidate(cands[i])
		return cands[i].Name
	})
	if err != nil {
		return nil, err
	}
	return profiles, nil
}

// profileCandidate measures one candidate, converting a measurement error
// into a skipped profile (one unmeasurable candidate must not lose the rest
// of the discovery).
func (c *Characterizer) profileCandidate(in *isa.Instr) isolation {
	res, err := c.measureIndependent(in, 8)
	if err != nil {
		return isolation{}
	}
	mask, tp, uops := profileOf(res, 8)
	return isolation{ports: portsOfMask(mask), tp: tp, uops: uops, ok: true}
}

// addMemoryBlocking registers the load, store-address and store-data
// combinations using plain MOV loads and stores.
func (c *Characterizer) addMemoryBlocking(bs *BlockingSet) error {
	arch := c.gen.arch
	store, err := c.gen.lookupVariant("MOV_M64_R64")
	if err != nil {
		return err
	}
	load, err := c.gen.lookupVariant("MOV_R64_M64")
	if err != nil {
		return err
	}
	entries := []BlockingInstr{
		{Instr: load, Ports: arch.LoadPorts(), UopsOnCombo: 1},
		{Instr: store, Ports: arch.StoreAddrPorts(), UopsOnCombo: 1},
		{Instr: store, Ports: arch.StoreDataPorts(), UopsOnCombo: 1},
	}
	for _, e := range entries {
		key := e.ComboKey()
		if _, ok := bs.SSE[key]; !ok {
			bs.SSE[key] = e
		}
		if _, ok := bs.AVX[key]; !ok {
			bs.AVX[key] = e
		}
	}
	return nil
}

// measureIndependent measures n independent instances of the variant.
func (c *Characterizer) measureIndependent(in *isa.Instr, n int) (measure.Result, error) {
	seq, err := c.gen.independentInstances(in, n)
	if err != nil {
		return measure.Result{}, err
	}
	return c.gen.h.Measure(seq)
}

// profileOf returns the profile of res, a measurement of n independent
// instances of a variant: the mask of the ports that received a significant
// share of its µops, the cycles per instruction, and the µops per
// instruction.
func profileOf(res measure.Result, n int) (uint, float64, float64) {
	perInstr := 1.0 / float64(n)
	var mask uint
	for p, u := range res.PortUops {
		if u*perInstr >= 0.05 {
			mask |= 1 << uint(p)
		}
	}
	return mask, res.Cycles * perInstr, res.TotalUops * perInstr
}

// portsOfMask converts a port bitmask to its port list, in increasing
// order, or nil for no ports.
func portsOfMask(mask uint) []int {
	var ports []int
	for ; mask != 0; mask &= mask - 1 {
		ports = append(ports, bits.TrailingZeros(mask))
	}
	return ports
}
