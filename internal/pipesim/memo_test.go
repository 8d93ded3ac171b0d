package pipesim

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/isa"
	"uopsinfo/internal/uarch"
)

// Tests of the reading table of RunCopies (memo.go): the key must separate
// kernels that rename can tell apart and join those it cannot, recalled
// readings must be the caller's own, and the table must stay within its
// budget.

// leafFields calls f with a settable Value and its path for every leaf (a
// number or a bool) of v, recursing into struct fields, unexported ones
// included, and array elements.
func leafFields(v reflect.Value, path string, f func(path string, leaf reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fv := v.Field(i)
			fv = reflect.NewAt(fv.Type(), unsafe.Pointer(fv.UnsafeAddr())).Elem()
			leafFields(fv, path+"."+v.Type().Field(i).Name, f)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			leafFields(v.Index(i), fmt.Sprintf("%s[%d]", path, i), f)
		}
	default:
		f(path, v)
	}
}

// bump changes leaf to another value and returns a func that restores it.
func bump(t *testing.T, path string, leaf reflect.Value) (undo func()) {
	t.Helper()
	old := reflect.ValueOf(leaf.Interface())
	switch leaf.Kind() {
	case reflect.Bool:
		leaf.SetBool(!leaf.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		leaf.SetInt(leaf.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		leaf.SetUint(leaf.Uint() + 1)
	default:
		t.Fatalf("%s: cannot change a field of kind %s", path, leaf.Kind())
	}
	return func() { leaf.Set(old) }
}

// TestTemplateKeyCoversEveryField changes, one at a time, every field of a
// template, of its shapes, of the µops they select and of those µops' read
// and write references — found by reflection, so a field added later is
// covered too — and requires the template's content key to change.
func TestTemplateKeyCoversEveryField(t *testing.T) {
	t.Parallel()
	// Every item differs from every other, and every range selects two
	// items with a third behind it, so moving either end of a range
	// changes what it selects.
	m := &Machine{}
	for i := int32(0); i < 8; i++ {
		m.tmplReads = append(m.tmplReads, tmplRef{arg: 10 + i, kind: refKind(i % 6), merge: i%2 == 0})
		m.tmplWrites = append(m.tmplWrites, tmplWrite{lat: [2]int32{20 + i, 30 + i},
			tmplRef: tmplRef{arg: 40 + i, kind: refKind(i % 6), merge: i%2 == 1}})
	}
	for i := int32(0); i < 6; i++ {
		m.tmplUops = append(m.tmplUops, tmplUop{rdStart: i, rdEnd: i + 2, wrStart: i, wrEnd: i + 2,
			divOcc: [2]int32{50 + i, 60 + i}, portMask: 1 << uint(i),
			eliminated: i%2 == 0, divider: i%3 == 0, ownReads: i%2 == 1})
	}
	tmpl := renameTmpl{
		shapes:   [2]tmplShape{{uopStart: 0, uopEnd: 2, moveElim: true}, {uopStart: 2, uopEnd: 4}},
		sameRegs: 3, domain: 1, sseAVX: sseAVXDirty,
	}
	base := m.appendTmplKey(nil, &tmpl)
	changed := 0
	check := func(path string, leaf reflect.Value) {
		undo := bump(t, path, leaf)
		if bytes.Equal(m.appendTmplKey(nil, &tmpl), base) {
			t.Errorf("changing %s leaves the template key unchanged", path)
		}
		undo()
		changed++
	}
	leafFields(reflect.ValueOf(&tmpl).Elem(), "renameTmpl", check)
	for i := 0; i < 4; i++ { // the µops the two shapes select
		leafFields(reflect.ValueOf(&m.tmplUops[i]).Elem(), fmt.Sprintf("tmplUops[%d]", i), check)
	}
	for i := 0; i < 5; i++ { // the references those µops select
		leafFields(reflect.ValueOf(&m.tmplReads[i]).Elem(), fmt.Sprintf("tmplReads[%d]", i), check)
		leafFields(reflect.ValueOf(&m.tmplWrites[i]).Elem(), fmt.Sprintf("tmplWrites[%d]", i), check)
	}
	if !bytes.Equal(m.appendTmplKey(nil, &tmpl), base) {
		t.Fatal("restoring every field did not restore the key")
	}
	t.Logf("%d fields changed", changed)
}

// memoKernels holds the instances the memo tests build kernels from, on
// Skylake.
type memoKernels struct {
	arch          *uarch.Arch
	blocker, test *asmgen.Inst // the port-usage kernel's two instances
	divide        *asmgen.Inst
	xorSame       *asmgen.Inst                   // XOR AL, AL: a zero idiom
	xorSub        *asmgen.Inst                   // XOR AL, AX: the same family, not the same register
	rmw, rmwDI    func(addr uint64) *asmgen.Inst // ADD [RSI], RBX and ADD [RDI], RBX
	bump, mul     *asmgen.Inst                   // ADD RSI, RSI and IMUL RSI, RSI
	store, load   func(addr uint64) *asmgen.Inst
	shuffle       func(imm int64) *asmgen.Inst
}

func newMemoKernels(t *testing.T) memoKernels {
	t.Helper()
	arch := uarch.Get(uarch.Skylake)
	k := memoKernels{arch: arch}
	pu := portUsageKernel(arch)
	k.blocker, k.test = pu[0], pu[len(pu)-1]
	k.divide = asmgen.MustInst(lookup(t, arch, "DIV_R64"), asmgen.RegOperand(isa.RBX))
	xor8 := lookup(t, arch, "XOR_R8_R8")
	k.xorSame = asmgen.MustInst(xor8, asmgen.RegOperand(isa.AL), asmgen.RegOperand(isa.AL))
	// The model has no AH, and NewInst checks operand classes, so two
	// sub-registers of one family meet in one same-register variant only
	// in an instance built directly. Rename compares whole registers and
	// decodes it as a plain XOR, so the key must tell it from XOR AL, AL.
	k.xorSub = &asmgen.Inst{Variant: xor8, Ops: []asmgen.Operand{asmgen.RegOperand(isa.AL), asmgen.RegOperand(isa.AX)}}
	add := lookup(t, arch, "ADD_M64_R64")
	k.rmw = func(addr uint64) *asmgen.Inst {
		return asmgen.MustInst(add, asmgen.MemOperand(isa.RSI, addr), asmgen.RegOperand(isa.RBX))
	}
	k.rmwDI = func(addr uint64) *asmgen.Inst {
		return asmgen.MustInst(add, asmgen.MemOperand(isa.RDI, addr), asmgen.RegOperand(isa.RBX))
	}
	k.bump = asmgen.MustInst(lookup(t, arch, "ADD_R64_R64"), asmgen.RegOperand(isa.RSI), asmgen.RegOperand(isa.RSI))
	k.mul = asmgen.MustInst(lookup(t, arch, "IMUL_R64_R64"), asmgen.RegOperand(isa.RSI), asmgen.RegOperand(isa.RSI))
	store, load := lookup(t, arch, "MOV_M64_R64"), lookup(t, arch, "MOV_R64_M64")
	k.store = func(addr uint64) *asmgen.Inst {
		return asmgen.MustInst(store, asmgen.MemOperand(isa.RSI, addr), asmgen.RegOperand(isa.RBX))
	}
	k.load = func(addr uint64) *asmgen.Inst {
		return asmgen.MustInst(load, asmgen.RegOperand(isa.RCX), asmgen.MemOperand(isa.RSI, addr))
	}
	pshufd := lookup(t, arch, "PSHUFD_XMM_XMM_I8")
	k.shuffle = func(imm int64) *asmgen.Inst {
		return asmgen.MustInst(pshufd, asmgen.RegOperand(isa.XMM1), asmgen.RegOperand(isa.XMM2), asmgen.ImmOperand(imm))
	}
	return k
}

// repeatInst returns n references to one instance.
func repeatInst(in *asmgen.Inst, n int) asmgen.Sequence {
	return asmgen.Sequence{in}.Repeat(n)
}

// TestKernelKeySeparatesWhatRenameReads builds pairs of kernels that
// differ only in one thing rename reads — the divider regime, a run
// length, a sub-register of one family, whether two memory operands alias,
// a memory base register, the variant — and requires different keys,
// different readings, and every reading RunCopies takes of them on one
// warm Machine to equal a fresh Run of the materialized copies.
func TestKernelKeySeparatesWhatRenameReads(t *testing.T) {
	t.Parallel()
	k := newMemoKernels(t)
	pairs := []struct {
		name string
		a, b asmgen.Sequence
		// fastB runs b under the fast divider regime, a under the slow one.
		fastB bool
	}{
		{"divider regime", repeatInst(k.divide, 2), repeatInst(k.divide, 2), true},
		{"run length", append(repeatInst(k.blocker, 3), k.test), append(repeatInst(k.blocker, 4), k.test), false},
		{"last run length", append(asmgen.Sequence{k.test}, repeatInst(k.blocker, 3)...),
			append(asmgen.Sequence{k.test}, repeatInst(k.blocker, 4)...), false},
		{"sub-register", repeatInst(k.xorSame, 2), repeatInst(k.xorSub, 2), false},
		{"memory aliasing", asmgen.Sequence{k.rmw(0x1000), k.rmw(0x1000)}, asmgen.Sequence{k.rmw(0x1000), k.rmw(0x1040)}, false},
		{"memory base register", asmgen.Sequence{k.bump, k.rmw(0x1000)}, asmgen.Sequence{k.bump, k.rmwDI(0x1000)}, false},
		{"variant", repeatInst(k.bump, 2), repeatInst(k.mul, 2), false},
	}
	regime := func(fast bool) DividerValues {
		if fast {
			return FastDividerValues
		}
		return SlowDividerValues
	}
	for _, p := range pairs {
		m := New(k.arch)
		keyA := m.appendKernelKey(nil, p.a)
		m.SetDividerValues(regime(p.fastB))
		keyB := m.appendKernelKey(nil, p.b)
		if bytes.Equal(keyA, keyB) {
			t.Errorf("%s: the kernels share the key %x", p.name, keyA)
		}
		fresh := New(k.arch)
		wantA := fresh.MustRun(p.a.Repeat(12))
		fresh.SetDividerValues(regime(p.fastB))
		if wantB := fresh.MustRun(p.b.Repeat(12)); wantA == wantB {
			t.Errorf("%s: the kernels read alike (%+v), so a shared key would go unseen", p.name, wantA)
		}
		for round := 0; round < 2; round++ {
			m.SetDividerValues(SlowDividerValues)
			checkRunCopies(t, m, p.a)
			m.SetDividerValues(regime(p.fastB))
			checkRunCopies(t, m, p.b)
		}
		if sim, rec := m.Readings(); sim != 2*len(copyCounts) || rec != 2*len(copyCounts) {
			t.Errorf("%s: %d readings simulated and %d recalled, want %d each", p.name, sim, rec, 2*len(copyCounts))
		}
	}
}

// TestKernelKeyJoinsWhatRenameIgnores builds pairs of kernels that differ
// only in what rename never reads — instance identity, immediates, and
// absolute addresses that alias alike — and requires one key, and the
// second kernel's readings on a warm Machine to be recalled and to equal a
// fresh Run of the materialized copies.
func TestKernelKeyJoinsWhatRenameIgnores(t *testing.T) {
	t.Parallel()
	k := newMemoKernels(t)
	blocker2 := &asmgen.Inst{Variant: k.blocker.Variant, Ops: append([]asmgen.Operand(nil), k.blocker.Ops...)}
	test2 := &asmgen.Inst{Variant: k.test.Variant, Ops: append([]asmgen.Operand(nil), k.test.Ops...)}
	pairs := []struct {
		name string
		a, b asmgen.Sequence
	}{
		{"instance identity", asmgen.Sequence{k.blocker, k.blocker, k.test}, asmgen.Sequence{k.blocker, blocker2, test2}},
		{"immediates", asmgen.Sequence{k.shuffle(0x1b), k.test}, asmgen.Sequence{k.shuffle(0x4e), k.test}},
		{"addresses", asmgen.Sequence{k.store(0x1000), k.load(0x1000), k.load(0x2000)},
			asmgen.Sequence{k.store(0x8040), k.load(0x8040), k.load(0x40)}},
	}
	for _, p := range pairs {
		m := New(k.arch)
		keyA, keyB := m.appendKernelKey(nil, p.a), m.appendKernelKey(nil, p.b)
		if !bytes.Equal(keyA, keyB) {
			t.Errorf("%s: keys %x and %x differ", p.name, keyA, keyB)
		}
		checkRunCopies(t, m, p.a)
		checkRunCopies(t, m, p.b)
		if sim, rec := m.Readings(); sim != len(copyCounts) || rec != len(copyCounts) {
			t.Errorf("%s: %d readings simulated and %d recalled, want %d each", p.name, sim, rec, len(copyCounts))
		}
	}
}

// TestRecalledReadingsAreCallersOwn changes every returned reading in
// place and requires the next recalled readings to be unchanged.
func TestRecalledReadingsAreCallersOwn(t *testing.T) {
	t.Parallel()
	arch := uarch.Get(uarch.Skylake)
	kernel := portUsageKernel(arch)
	want := []Counters{New(arch).MustRun(kernel.Repeat(2)), New(arch).MustRun(kernel.Repeat(12))}
	m := New(arch)
	for round := 0; round < 3; round++ {
		got, err := runCopies(m, kernel, 2, 12)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d, reading %d: %+v, want %+v", round, i, got[i], want[i])
			}
			got[i].Cycles++
			for p := range got[i].PortUops {
				got[i].PortUops[p] += 100
			}
		}
	}
	if sim, rec := m.Readings(); sim != 2 || rec != 4 {
		t.Errorf("%d readings simulated and %d recalled, want 2 and 4", sim, rec)
	}
}

// TestDecodeCountersFitsPortCount decodes one reading stored by a Machine
// with 8 ports at fewer, as many and more ports, and requires the stored
// reading each time. In race builds a nonzero entry at or past the port
// count must panic: recalled there, the reading would hold µops on a port
// the reading machine does not have.
func TestDecodeCountersFitsPortCount(t *testing.T) {
	t.Parallel()
	c := Counters{Cycles: 9, TotalUops: 3, IssuedUops: 4, ElimUops: 1, PortUops: [MaxPorts]int{1, 0, 2}}
	b := appendCounters(nil, c, 8)
	for _, ports := range []int{6, 8, 10} {
		if got := decodeCounters(b, ports); got != c {
			t.Errorf("%d ports: %+v, want %+v", ports, got, c)
		}
	}
	if !raceEnabled {
		return
	}
	c.PortUops[7] = 5
	b = appendCounters(nil, c, 8)
	defer func() {
		if recover() == nil {
			t.Error("decoding 5 µops on port 7 at 6 ports did not panic")
		}
	}()
	decodeCounters(b, 6)
}

// TestMemoStaysWithinBudget streams distinct kernels through one Machine
// whose table has a 64 KiB budget, so that the stream outgrows it, and
// requires the table never to hold more than its budget, to have been
// dropped on the way (and to count each drop), and never to store a
// reading whose key alone outgrows the budget.
func TestMemoStaysWithinBudget(t *testing.T) {
	t.Parallel()
	arch := uarch.Get(uarch.Skylake)
	m := New(arch)
	tb := m.table
	tb.budget = 64 << 10
	drops := 0
	for i, k := range randomSequences(t, arch, 400, rand.New(rand.NewSource(0xb0d9))) {
		before := tb.bytes
		if _, err := runCopies(m, k, 1, 2); err != nil {
			t.Fatal(err)
		}
		if tb.bytes > tb.budget || len(tb.vals) > tb.budget {
			t.Fatalf("kernel %d: the table holds %d bytes (%d of counters), over its budget of %d",
				i, tb.bytes, len(tb.vals), tb.budget)
		}
		if tb.bytes < before {
			drops++
		}
	}
	if drops == 0 {
		t.Fatalf("the table never filled (%d bytes): the stream does not reach the budget", tb.bytes)
	}
	if st := tb.Stats(); st.Drops != drops || st.Bytes != tb.bytes {
		t.Errorf("Stats reports %d drops and %d bytes, want %d and %d", st.Drops, st.Bytes, drops, tb.bytes)
	}

	k := newMemoKernels(t)
	var huge asmgen.Sequence
	for i := 0; i < 8000; i++ {
		huge = append(huge, k.store(uint64(0x1000+8*i)))
	}
	if key := m.appendKernelKey(nil, huge); len(key) <= tb.budget {
		t.Fatalf("a %d-byte key does not outgrow the budget", len(key))
	}
	before, entries := tb.bytes, len(tb.readings)
	sim0, _ := m.Readings()
	for i := 0; i < 2; i++ {
		if _, err := runCopies(m, huge, 1); err != nil {
			t.Fatal(err)
		}
	}
	if sim, _ := m.Readings(); sim-sim0 != 2 {
		t.Errorf("two readings of a kernel with an oversized key simulated %d times, want 2", sim-sim0)
	}
	if tb.bytes != before || len(tb.readings) != entries {
		t.Errorf("the table changed from %d bytes in %d entries to %d in %d", before, entries, tb.bytes, len(tb.readings))
	}
}

// TestMemoLifecycle pins what keeps and what shares the table: Reset keeps
// it, a clone shares its parent's readings, Run never consults it, and a
// reading that does not drain is never stored.
func TestMemoLifecycle(t *testing.T) {
	t.Parallel()
	arch := uarch.Get(uarch.Skylake)
	kernel := portUsageKernel(arch)
	m := New(arch)
	m.MustRun(kernel)
	for i := 0; i < 2; i++ {
		if _, err := runCopies(m, kernel, 2); err != nil {
			t.Fatal(err)
		}
		m.Reset()
	}
	m.MustRun(kernel)
	if sim, rec := m.Readings(); sim != 3 || rec != 1 {
		t.Errorf("Run, RunCopies twice with Reset, Run: %d readings simulated and %d recalled, want 3 and 1", sim, rec)
	}
	c := m.Clone()
	if _, err := runCopies(c, kernel, 2); err != nil {
		t.Fatal(err)
	}
	if sim, rec := c.Readings(); sim != 0 || rec != 1 {
		t.Errorf("clone: %d readings simulated and %d recalled, want 0 and 1", sim, rec)
	}

	small := NewWithConfig(arch, Config{MaxCycles: 1000})
	divChain := repeatInst(newMemoKernels(t).divide, 8)
	for i := 0; i < 2; i++ {
		if _, err := runCopies(small, divChain, 12); err == nil {
			t.Fatal("12 copies of a divider chain drained in 1000 cycles")
		}
	}
	if sim, rec := small.Readings(); sim != 2 || rec != 0 || len(small.table.readings) != 0 {
		t.Errorf("undrained readings: %d simulated, %d recalled, %d stored; want 2, 0, 0", sim, rec, len(small.table.readings))
	}
}
