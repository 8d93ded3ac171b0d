package pipesim

import (
	"bytes"
	"encoding/binary"

	"uopsinfo/internal/asmgen"
)

// This file holds the reading memo of RunCopies: a Machine remembers the
// counters of each reading it simulated, keyed by everything the
// simulation reads of the reading's kernel, and answers a repeated reading
// from memory instead of simulating it again.
//
// The memo is exact because a reading is a function of its key and of
// the Machine's fixed state:
//
//   - rename reads, per instance, the rename template of its variant and
//     the instance's explicit registers and memory operands. The registers
//     pick the template's shape (explicitRegsEqual compares whole
//     registers, so AL and AX differ though their family is the same),
//     and the register families, the memory base families and the memory
//     addresses are the dependencies it renames. Addresses are only ever
//     compared with each other, as memBoard keys, so numbering them by
//     first use in the kernel preserves every comparison. Immediates and
//     instance identity play no part. Rename also reads the copy count,
//     the divider regime (templates hold latencies and divider occupancies
//     for both regimes) and the generation.
//   - execute reads only the renamed arena and the Machine's
//     configuration: the generation, SchedulerSize and MaxCycles.
//   - Everything else a Machine keeps across runs is reset before each run
//     (checkResetInvariants pins it), except what the simulation never
//     reads (the memo and its scratch), the rename templates, which hold
//     facts of the variants only, and the temp slots, which tempGen
//     invalidates by epoch.
//
// So a reading's key is the copy count, the divider regime and, per run of
// one repeated instance, the template's content id, the explicit registers
// and memory operands (addresses numbered by first use) and the run length.
// The regime is in the key because SetDividerValues changes it on a live
// Machine. The rest of the configuration and the generation are not: they
// are fixed when the Machine is made, and Clone starts with an empty memo.
// Templates are interned by content (appendTmplKey), so a content id names
// exactly one template, and variants that decode alike share keys.
//
// The memo holds at most memoBudget bytes, charged per entry as the key,
// the encoded counters and memoEntryOverhead. An entry that does not fit
// beside the others drops the memo whole first: no eviction order to keep,
// and a characterization's repeats are close together.

// memoBudget bounds the bytes a Machine's reading memo holds.
const memoBudget = 64 << 10

// memoEntryOverhead is what one memo entry costs beyond its key and
// encoded counters: its map slot (a string header and an offset) and a
// share of the map's spare capacity.
const memoEntryOverhead = 48

// appendKernelKey appends to b the key of code under the Machine's divider
// regime, without the copy count: the regime, then per run of one repeated
// instance the instance's key (appendInstKey) and the run length. Runs
// are found by content, so instances that differ only in identity or
// immediates join one run. It takes time linear in len(code).
func (m *Machine) appendKernelKey(b []byte, code asmgen.Sequence) []byte {
	b = append(b, byte(m.regime()))
	clear(m.addrIDs)
	var last *asmgen.Inst
	start, end, run := 0, 0, 0
	for _, inst := range code {
		if inst != last {
			last = inst
			m.instKey = m.appendInstKey(m.instKey[:0], inst)
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
	return b
}

// appendInstKey appends to b what rename reads of inst: its template's
// content id, then per explicit operand the register and the memory
// operand's base register and address id, the address numbered by first
// use in the kernel.
func (m *Machine) appendInstKey(b []byte, inst *asmgen.Inst) []byte {
	b = binary.AppendUvarint(b, uint64(m.templateFor(inst.Variant)))
	b = binary.AppendUvarint(b, uint64(len(inst.Ops)))
	for i := range inst.Ops {
		op := &inst.Ops[i]
		b = binary.AppendVarint(b, int64(op.Reg))
		if op.Mem == nil {
			b = append(b, 0)
			continue
		}
		id, ok := m.addrIDs[op.Mem.Addr]
		if !ok {
			id = idx32(len(m.addrIDs))
			m.addrIDs[op.Mem.Addr] = id
		}
		b = append(b, 1)
		b = binary.AppendVarint(b, int64(op.Mem.Base))
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

// remember stores reading c under key. When the entry does not fit beside
// the others, the memo is dropped whole first; an entry larger than the
// whole budget is not stored.
func (m *Machine) remember(key []byte, c Counters) {
	off := len(m.memoVals)
	m.memoVals = appendCounters(m.memoVals, c)
	cost := len(key) + len(m.memoVals) - off + memoEntryOverhead
	switch {
	case cost > memoBudget:
		m.memoVals = m.memoVals[:off]
		return
	case m.memoBytes+cost > memoBudget:
		clear(m.memo)
		m.memoVals = m.memoVals[:copy(m.memoVals, m.memoVals[off:])]
		off, m.memoBytes = 0, 0
	}
	m.memo[string(key)] = idx32(off)
	m.memoBytes += cost
}

// recall returns a fresh copy of the reading stored at offset off of
// memoVals.
func (m *Machine) recall(off int32) Counters {
	b := m.memoVals[off:]
	next := func() int {
		v, n := binary.Varint(b)
		b = b[n:]
		return int(v)
	}
	c := Counters{Cycles: next(), TotalUops: next(), IssuedUops: next(), ElimUops: next()}
	c.PortUops = make([]int, next())
	for p := range c.PortUops {
		c.PortUops[p] = next()
	}
	m.recalled++
	return c
}

// appendCounters appends the varint encoding of c to b.
func appendCounters(b []byte, c Counters) []byte {
	for _, v := range [...]int{c.Cycles, c.TotalUops, c.IssuedUops, c.ElimUops, len(c.PortUops)} {
		b = binary.AppendVarint(b, int64(v))
	}
	for _, v := range c.PortUops {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}
