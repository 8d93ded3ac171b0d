package pipesim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"

	"uopsinfo/internal/asmgen"
)

// This file holds the reading table of RunCopies: the counters of every
// reading a Machine simulated, keyed by everything the simulation reads of
// the reading's kernel and of the machine, so that a repeated reading is
// recalled instead of simulated again. Clones share their parent's table,
// and so does every Machine an owner hands the same table (SetTable): the
// engine gives one table to all the Machines it builds, of every
// generation.
//
// The table is exact because a reading is a function of its key:
//
//   - rename reads, per instance, the rename template of its variant, the
//     decoding it picks (shapeOf: the same-register one when the registers
//     the template selects are equal, which explicitRegsEqual decides on
//     whole registers, so XOR AL, AL is a zero idiom and XOR AL, AX is
//     not), and the instance's explicit operands. Of a register it reads
//     only the family: the scoreboard, the produced marks of move
//     elimination and the base of a memory operand are all indexed by
//     family, so ADD EAX, ECX renames as ADD RAX, RCX does. RegNone is its
//     own family, and a register operand that names it is skipped. Memory
//     addresses are only ever compared with each other, as memBoard keys,
//     so numbering them by first use in the kernel preserves every
//     comparison. Immediates and instance identity play no part. Rename
//     also reads the copy count, the divider regime (templates hold
//     latencies and divider occupancies for both regimes) and the machine
//     record's SSE/AVX penalty; the variant's µops (Perf), the port count
//     and the load latency reach it only through the template.
//   - The penalty reaches a reading only through rename, which adds it
//     when a legacy SSE instance follows one that dirtied the upper
//     halves. A kernel without both an sseAVXDirty and an sseAVXSSE
//     template never pays it, at any copy count, so its readings are the
//     same under every penalty.
//   - execute reads only the renamed arena and the machine record: the
//     port count, the issue width, SchedulerSize and MaxCycles. A µop
//     dispatches only to a port of its mask, and buildShape cut the masks
//     to the ports below the port count, which the template ids encode; the
//     allPorts early exit of the dispatch walk only ends a walk that
//     readyUnion would end at its next µop, so it never changes which µop
//     dispatches. So two records that differ only in the port count read
//     a kernel alike, and a reading holds zeros past the highest port of
//     its kernel's masks, which race builds check on every recalled
//     reading (decodeCounters).
//   - Everything else a Machine keeps across runs is reset before each run
//     (checkResetInvariants pins it), except what the simulation never
//     reads (the table and the key scratch), the rename templates, which
//     hold facts of the variants only, and the temp slots, which tempGen
//     invalidates by epoch.
//
// So a reading's key is the machine record without the port count and the
// penalty (the issue width, the load latency, SchedulerSize and MaxCycles,
// encoded once per Machine by appendRecKey), the copy count, the divider
// regime, per run of one repeated instance the template's id, the decoding,
// the explicit operands' register families and memory operands (base family
// and address, numbered by first use) and the run length, and last the
// penalty the kernel can pay: the record's if it holds both a dirtying and a
// legacy SSE template, else 0. The regime and the penalty are in the
// kernel's key (appendKernelKey), the regime because SetDividerValues
// changes it on a live Machine. A template's SSE/AVX kind is part of its
// content, so its id says which kind it is. The load latency, too, reaches
// a reading only through the templates, but every modelled generation has
// the same, so keeping it in the record costs no sharing.
//
// Template ids are the table's, not a Machine's: the table interns each
// template's content (appendTmplKey), so an id names one template in every
// Machine that shares the table, and variants of any generation that decode
// alike share keys. The interner is never cleared, not even when the
// readings are: an id handed out again for other content would make a key
// that some Machine builds from its old id name a different kernel. It
// grows with the distinct templates of the ISA, about 900 over all nine
// generations.
//
// Nothing in a key names the generation, and nothing has to. Two Machines
// with equal records whose instances bind templates of equal content run
// the same simulation, whatever generation each was made for. So Kaby Lake
// recalls what Skylake simulated, because in this model they are the same
// machine, while a record that differs in more than the port count and the
// penalty, or a variant whose µops differ, gets other keys. Records that
// differ only in the penalty share every
// reading of a kernel that cannot pay it: Skylake recalls what Haswell
// simulated of the variants they decode alike, and Sandy Bridge what
// Nehalem did. Records that differ only in the port count share every
// reading of a kernel whose templates agree: Haswell recalls Sandy Bridge's
// PADDD kernels. Errors name the generation, and failed readings are never
// stored.
//
// The readings take at most tableBudget bytes, charged per entry as the
// key, the encoded counters (the storing Machine's port count, then that
// many port entries) and entryOverhead. An entry that does not fit
// beside the others drops the readings whole first (the interner stays):
// no eviction order to keep, and one pass over the ISA fits. One mutex
// guards the table. RunCopies takes it once to recall and, if it missed
// anything, once more to settle; recalled counters are decoded under it,
// since a drop moves the encoded counters.
//
// A reading is simulated once even when Machines on several goroutines
// miss it at once. A Machine that misses a key no other Machine has
// claimed claims it, under the mutex, and simulates it; settling stores
// the reading and releases the claim. A Machine that misses a key another
// Machine claimed waits, on a sync.Cond over the same mutex, until that
// claim is released, and then looks the key up again: a reading recalled
// after a wait counts as a hit. A Machine waits only while it holds no
// claim of its own; once it holds one, it simulates a key claimed
// elsewhere itself, unclaimed. So a Machine that waits holds nothing that
// another waits for, every claim belongs to a Machine that is simulating,
// and no wait cycle can form. The keys of one RunCopies call differ only
// in the copy count, and the harness asks every kernel for the same counts
// in the same order, so outside a drop a Machine that claimed one of a
// kernel's counts never finds another claimed elsewhere, and a pass
// simulates each key once, at any worker count. A run that fails releases
// its claims unstored, as does a RunCopies that panics; a waiter then
// claims the key and simulates it itself.

// tableBudget bounds the bytes a reading table's readings are charged.
const tableBudget = 8 << 20

// entryOverhead is what one table entry costs beyond its key and encoded
// counters: its map slot (a string header and an offset) and a share of the
// map's spare capacity.
const entryOverhead = 48

// Table is a reading table: the readings RunCopies simulated and the ids of
// the rename templates, shared by every Machine that uses it (see Clone and
// SetTable). It is safe for concurrent use.
type Table struct {
	mu sync.Mutex
	// ids interns template content (appendTmplKey) to table-global ids;
	// it is never cleared.
	ids map[string]int32
	// readings maps a reading's key to the offset of its varint-encoded
	// counters in vals; bytes is what its entries are charged against
	// budget, tableBudget outside tests.
	readings map[string]int32
	vals     []byte
	bytes    int
	budget   int
	hits     int
	misses   int
	drops    int
	// claims maps the key of each reading a Machine is simulating now to
	// that Machine, and released is broadcast whenever claims go.
	claims   map[string]*Machine
	released sync.Cond
}

// TableStats are a reading table's counters.
type TableStats struct {
	Hits   int // readings RunCopies recalled, after waiting for a claim or not
	Misses int // readings RunCopies looked up in vain, and so simulated
	Bytes  int // what the readings held now are charged, at most 8 MiB
	Drops  int // times the readings were dropped whole to make room
}

// NewTable returns an empty reading table.
func NewTable() *Table {
	t := &Table{ids: make(map[string]int32), readings: make(map[string]int32),
		claims: make(map[string]*Machine), budget: tableBudget}
	t.released.L = &t.mu
	return t
}

// Stats returns a snapshot of the table's counters.
func (t *Table) Stats() TableStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TableStats{Hits: t.hits, Misses: t.misses, Bytes: t.bytes, Drops: t.drops}
}

// intern returns the table-global id of the template whose content key is
// key, handing out the next id to content it has not seen.
func (t *Table) intern(key []byte) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.ids[string(key)]
	if !ok {
		id = idx32(len(t.ids))
		t.ids[string(key)] = id
	}
	return id
}

// miss is a count RunCopies did not find in the table: its index in the
// copy counts, its reading's key, and whether the Machine claimed the key.
type miss struct {
	i       int
	key     string
	claimed bool
}

// recall fills out[i] for every count copies[i] the table holds a reading
// of, under one lock, and appends the others to m.missed, claiming each key
// no Machine has claimed. While m holds no claim, it waits for a key that
// another Machine claimed and then looks it up again; once it holds one, it
// takes such a key as a miss without claiming it (memo.go).
func (m *Machine) recall(copies []int, out []Counters) {
	t := m.table
	t.mu.Lock()
	defer t.mu.Unlock()
	holds := false
	for i, n := range copies {
		key := m.readingKey(n)
		for {
			if off, ok := t.readings[string(key)]; ok {
				out[i] = decodeCounters(t.vals[off:], m.rec.NumPorts)
				t.hits++
				m.recalled++
				break
			}
			_, busy := t.claims[string(key)]
			if busy && !holds {
				t.released.Wait()
				continue
			}
			t.misses++
			ms := miss{i: i, key: string(key), claimed: !busy}
			if ms.claimed {
				t.claims[ms.key] = m
				holds = true
			}
			m.missed = append(m.missed, ms)
			break
		}
	}
}

// settle stores the readings out[ms.i] of the first done misses ms of
// m.missed, which RunCopies simulated, and releases every claim of
// m.missed, waking the Machines that wait for one; the other misses failed
// or were never simulated, and are not stored. It takes the lock only if
// there are misses.
func (m *Machine) settle(out []Counters, done int) {
	if len(m.missed) == 0 {
		return
	}
	t := m.table
	t.mu.Lock()
	defer t.mu.Unlock()
	released := false
	for j, ms := range m.missed {
		if j < done {
			t.store(ms.key, out[ms.i], m.rec.NumPorts)
		}
		if ms.claimed {
			delete(t.claims, ms.key)
			released = true
		}
	}
	if released {
		t.released.Broadcast()
	}
}

// readingKey returns the key of the reading of n copies of the kernel whose
// key m.kernelKey holds, built in m.keyBuf.
func (m *Machine) readingKey(n int) []byte {
	m.keyBuf = append(binary.AppendVarint(append(m.keyBuf[:0], m.recKey...), int64(n)), m.kernelKey...)
	return m.keyBuf
}

// store stores reading c of a machine with numPorts ports under key, unless
// the table holds it already (a Machine that found the key claimed
// simulated it meanwhile). When the entry does not fit beside the others,
// the readings are dropped whole first; an entry larger than the whole
// budget is not stored. The caller holds t.mu.
func (t *Table) store(key string, c Counters, numPorts int) {
	if _, ok := t.readings[key]; ok {
		return
	}
	off := len(t.vals)
	t.vals = appendCounters(t.vals, c, numPorts)
	cost := len(key) + len(t.vals) - off + entryOverhead
	switch {
	case cost > t.budget:
		t.vals = t.vals[:off]
		return
	case t.bytes+cost > t.budget:
		clear(t.readings)
		t.vals = t.vals[:copy(t.vals, t.vals[off:])]
		off, t.bytes = 0, 0
		t.drops++
	}
	t.readings[key] = idx32(off)
	t.bytes += cost
}

// appendRecKey appends to b the encoding of the machine record r, all but
// its port count, which reaches a reading only through the templates, and
// its SSE/AVX penalty, which appendKernelKey adds only for a kernel that
// can pay it.
func appendRecKey(b []byte, r record) []byte {
	for _, v := range [...]int{r.IssueWidth, r.LoadLatency, r.schedulerSize, r.maxCycles} {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

// appendKernelKey appends to b the key of code under the Machine's divider
// regime and SSE/AVX penalty, without the rest of the machine record and the
// copy count: the regime, then per run of one repeated instance the
// instance's key (appendInstKey) and the run length, then the penalty the
// kernel can pay. Runs are found by content, so instances that differ only
// in identity or immediates join one run. The penalty is the record's if
// code holds both an sseAVXDirty and an sseAVXSSE template, the only
// kernels whose readings it reaches, and 0 if not; a run takes at least
// three varints, so the key's last varint is the penalty. It takes time
// linear in len(code).
func (m *Machine) appendKernelKey(b []byte, code asmgen.Sequence) []byte {
	b = append(b, byte(m.regime()))
	clear(m.addrIDs)
	var last *asmgen.Inst
	var kinds uint8 // one bit per sseAVXKind of the kernel's templates
	start, end, run := 0, 0, 0
	for _, inst := range code {
		if inst != last {
			last = inst
			ti := m.templateFor(inst.Variant)
			kinds |= 1 << m.tmpls[ti].sseAVX
			m.instKey = m.appendInstKey(m.instKey[:0], ti, inst)
			if run == 0 || !bytes.Equal(m.instKey, b[start:end]) {
				if run > 0 {
					b = binary.AppendUvarint(b, uint64(run))
				}
				start = len(b)
				b = append(b, m.instKey...)
				end = len(b)
				run = 0
			}
		}
		run++
	}
	if run > 0 {
		b = binary.AppendUvarint(b, uint64(run))
	}
	const mixed = 1<<sseAVXDirty | 1<<sseAVXSSE
	penalty := 0
	if kinds&mixed == mixed {
		penalty = m.rec.SSEAVXPenalty
	}
	return binary.AppendVarint(b, int64(penalty))
}

// appendInstKey appends to b what rename reads of inst, whose variant's
// template is m.tmpls[ti]: the template's table-global id, the decoding
// rename picks (shapeOf), the operand count, then per explicit operand the
// register's family (RegNone, its own family, for none) and the memory
// operand's base family and address id, the address numbered by first use
// in the kernel.
func (m *Machine) appendInstKey(b []byte, ti int32, inst *asmgen.Inst) []byte {
	b = binary.AppendUvarint(b, uint64(m.tableIDs[ti]))
	b = append(b, byte(m.tmpls[ti].shapeOf(inst)))
	b = binary.AppendUvarint(b, uint64(len(inst.Ops)))
	for i := range inst.Ops {
		op := &inst.Ops[i]
		b = binary.AppendVarint(b, int64(op.Reg.Family()))
		if !op.IsMem() {
			b = append(b, 0)
			continue
		}
		id, ok := m.addrIDs[op.Mem.Addr]
		if !ok {
			id = idx32(len(m.addrIDs))
			m.addrIDs[op.Mem.Addr] = id
		}
		b = append(b, 1)
		b = binary.AppendVarint(b, int64(op.Mem.Base.Family()))
		b = binary.AppendUvarint(b, uint64(id))
	}
	return b
}

// appendTmplKey appends to b the content of template t: every field of it,
// of its shapes' µops and of their read and write references, with each
// [start,end) range replaced by the count and content of the items it
// selects. Two templates are equal exactly when their keys are.
func (m *Machine) appendTmplKey(b []byte, t *renameTmpl) []byte {
	b = append(b, byte(t.domain), byte(t.sseAVX))
	b = binary.AppendUvarint(b, uint64(t.sameRegs))
	for _, sh := range t.shapes {
		b = append(b, flagBits(sh.moveElim))
		b = binary.AppendVarint(b, int64(sh.uopEnd-sh.uopStart))
		for _, tu := range m.tmplUops[sh.uopStart:sh.uopEnd] {
			b = binary.AppendVarint(b, int64(tu.divOcc[SlowDividerValues]))
			b = binary.AppendVarint(b, int64(tu.divOcc[FastDividerValues]))
			b = binary.AppendUvarint(b, uint64(tu.portMask))
			b = append(b, flagBits(tu.eliminated, tu.divider, tu.ownReads))
			b = binary.AppendVarint(b, int64(tu.rdEnd-tu.rdStart))
			for _, r := range m.tmplReads[tu.rdStart:tu.rdEnd] {
				b = appendRefKey(b, r)
			}
			b = binary.AppendVarint(b, int64(tu.wrEnd-tu.wrStart))
			for _, w := range m.tmplWrites[tu.wrStart:tu.wrEnd] {
				b = binary.AppendVarint(b, int64(w.lat[SlowDividerValues]))
				b = binary.AppendVarint(b, int64(w.lat[FastDividerValues]))
				b = appendRefKey(b, w.tmplRef)
			}
		}
	}
	return b
}

// appendRefKey appends the content of a template reference to b.
func appendRefKey(b []byte, r tmplRef) []byte {
	b = append(b, byte(r.kind), flagBits(r.merge))
	return binary.AppendVarint(b, int64(r.arg))
}

// flagBits packs up to eight flags into a byte, the first in bit 0.
func flagBits(flags ...bool) byte {
	var v byte
	for i, f := range flags {
		if f {
			v |= 1 << uint(i)
		}
	}
	return v
}

// decodeCounters returns the reading encoded at the start of b for a
// Machine with numPorts ports. A reading stored by a Machine with more
// ports holds zeros at and past numPorts (memo.go); race builds panic if it
// does not.
func decodeCounters(b []byte, numPorts int) Counters {
	next := func() int {
		v, n := binary.Varint(b)
		b = b[n:]
		return int(v)
	}
	c := Counters{Cycles: next(), TotalUops: next(), IssuedUops: next(), ElimUops: next()}
	for p := range next() {
		c.PortUops[p] = next()
	}
	if raceEnabled {
		for p := numPorts; p < MaxPorts; p++ {
			if v := c.PortUops[p]; v != 0 {
				panic(fmt.Sprintf("pipesim: a recalled reading dispatched %d µops to port %d, beyond the %d of the reading machine", v, p, numPorts))
			}
		}
	}
	return c
}

// appendCounters appends to b the varint encoding of c, a reading of a
// machine with numPorts ports: its scalar counters, numPorts, then the
// first numPorts entries of PortUops.
func appendCounters(b []byte, c Counters, numPorts int) []byte {
	for _, v := range [...]int{c.Cycles, c.TotalUops, c.IssuedUops, c.ElimUops, numPorts} {
		b = binary.AppendVarint(b, int64(v))
	}
	for _, v := range c.PortUops[:numPorts] {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}
