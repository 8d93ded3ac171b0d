package pipesim

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/isa"
	"uopsinfo/internal/uarch"
)

// Tests of one reading table shared by several Machines (memo.go): a
// reading that a Machine of one generation stored must be exact on every
// Machine that recalls it, of any generation, and Machines whose records
// differ must not share readings.

// shareKernels returns the kernels the sharing tests read: the bench
// shapes' first 32 instructions, random sequences, each memoPairs pair as a
// run of its first instance and alternated, and a divider chain. They are
// built on Nehalem, whose variants every later generation has, so the same
// instances run on all nine generations.
func shareKernels(t testing.TB) []asmgen.Sequence {
	arch := uarch.Get(uarch.Nehalem)
	var kernels []asmgen.Sequence
	for _, k := range benchShapes(arch) {
		kernels = append(kernels, k[:min(len(k), 32)])
	}
	kernels = append(kernels, randomSequences(t, arch, 12, rand.New(rand.NewSource(0x7ab1e)))...)
	for _, p := range memoPairs(t, arch) {
		kernels = append(kernels, repeatInst(p[0], 8), asmgen.Sequence{p[0], p[1]}.Repeat(4))
	}
	div := arch.InstrSet().Lookup("DIV_R64")
	return append(kernels, repeatInst(asmgen.MustInst(div, asmgen.RegOperand(isa.RBX)), 8))
}

// avxKernels returns kernels that pay the SSE/AVX transition penalty where
// a generation charges one, built on Sandy Bridge, for the generations
// with AVX: an AVX add on YMM registers followed by a legacy SSE add, with
// and without a VZEROUPPER between them.
func avxKernels() []asmgen.Sequence {
	set := uarch.Get(uarch.SandyBridge).InstrSet()
	avx := asmgen.MustInst(set.Lookup("VADDPS_YMM_YMM_YMM"), asmgen.RegOperand(isa.YMM0), asmgen.RegOperand(isa.YMM1), asmgen.RegOperand(isa.YMM2))
	sse := asmgen.MustInst(set.Lookup("ADDPS_XMM_XMM"), asmgen.RegOperand(isa.XMM3), asmgen.RegOperand(isa.XMM4))
	clean := asmgen.MustInst(set.Lookup("VZEROUPPER"))
	return []asmgen.Sequence{{avx, sse}, {avx, clean, sse}}
}

// reading is what RunCopies must return for a kernel at copyCounts: the
// counters of Run on the materialized copies, count by count, or the error
// of the first count that does not drain.
type reading struct {
	counters []Counters
	err      error
}

// runReading returns the reading of k on a private Machine of arch under
// cfg.
func runReading(arch *uarch.Arch, cfg Config, k asmgen.Sequence) reading {
	m := NewWithConfig(arch, cfg)
	var r reading
	for _, n := range copyCounts {
		c, err := m.Run(k.Repeat(n))
		if err != nil {
			return reading{err: err}
		}
		r.counters = append(r.counters, c)
	}
	return r
}

// checkReading fails t unless m.RunCopies(k, copyCounts...) returns want.
func checkReading(t testing.TB, m *Machine, k asmgen.Sequence, want reading, what string) {
	t.Helper()
	got, err := runCopies(m, k, copyCounts...)
	if fmt.Sprint(err) != fmt.Sprint(want.err) {
		t.Fatalf("%s, %d-instruction kernel: RunCopies error %v, Run error %v", what, len(k), err, want.err)
	}
	for i := range got {
		if got[i] != want.counters[i] {
			t.Fatalf("%s, %d copies of a %d-instruction kernel: RunCopies %+v, Run %+v",
				what, copyCounts[i], len(k), got[i], want.counters[i])
		}
	}
}

// TestTableSharedAcrossGenerations fills a table on one generation and
// reads a copy of it on another, for all 81 ordered pairs, under the
// default and a small MaxCycles and both divider regimes, and requires
// every reading to equal Run of the materialized copies on a private
// Machine of the reading generation, errors included. The kernels are
// shareKernels, and avxKernels on the generations with AVX. A generation
// reading its own fill simulates only the readings that fail, which are
// never stored; every generation recalls some readings that another
// generation stored, since in this model each has a twin (Westmere of
// Nehalem, Ivy Bridge of Sandy Bridge, Broadwell of Haswell, Kaby Lake and
// Coffee Lake of Skylake).
func TestTableSharedAcrossGenerations(t *testing.T) {
	t.Parallel()
	shared := shareKernels(t)
	kernelsOf := func(arch *uarch.Arch) []asmgen.Sequence {
		if arch.Supports(isa.ExtAVX) {
			return append(shared[:len(shared):len(shared)], avxKernels()...)
		}
		return shared
	}
	archs := uarch.All()
	configs := []Config{{}, {MaxCycles: 1000}}
	regimes := []DividerValues{SlowDividerValues, FastDividerValues}
	// filled[c][g] is a table filled on archs[g] under configs[c]; each
	// pair reads a copy of it.
	filled := make([][]*Table, len(configs))
	for c, cfg := range configs {
		for _, from := range archs {
			fill := NewWithConfig(from, cfg)
			for _, regime := range regimes {
				fill.SetDividerValues(regime)
				for _, k := range kernelsOf(from) {
					_, _ = runCopies(fill, k, copyCounts...) // failing readings are expected
				}
			}
			filled[c] = append(filled[c], fill.table)
		}
	}
	for _, to := range archs {
		to := to
		t.Run(to.Name(), func(t *testing.T) {
			t.Parallel()
			kernels := kernelsOf(to)
			recalledFromOthers := 0
			for c, cfg := range configs {
				var want [2][]reading
				failing := 0
				for r, regime := range regimes {
					cfg := cfg
					cfg.DividerValues = regime
					for _, k := range kernels {
						want[r] = append(want[r], runReading(to, cfg, k))
						if want[r][len(want[r])-1].err != nil {
							failing++
						}
					}
				}
				if cfg.MaxCycles == 1000 && failing == 0 {
					t.Error("no kernel failed to drain under MaxCycles 1000")
				}
				for g, from := range archs {
					read := NewWithConfig(to, cfg)
					read.SetTable(copyTable(filled[c][g]))
					what := fmt.Sprintf("filled on %s, MaxCycles %d", from.Name(), read.cfg.MaxCycles)
					for r, regime := range regimes {
						read.SetDividerValues(regime)
						for i, k := range kernels {
							checkReading(t, read, k, want[r][i], what)
						}
					}
					sim, rec := read.Readings()
					if from == to && sim != failing {
						t.Errorf("%s: %d readings simulated, want %d, the failing ones", what, sim, failing)
					}
					if from != to {
						recalledFromOthers += rec
					}
				}
			}
			if recalledFromOthers == 0 {
				t.Error("recalled no reading another generation stored")
			}
		})
	}
}

// copyTable returns a new table holding what tb holds.
func copyTable(tb *Table) *Table {
	c := NewTable()
	maps.Copy(c.ids, tb.ids)
	maps.Copy(c.readings, tb.readings)
	c.vals, c.bytes = slices.Clone(tb.vals), tb.bytes
	return c
}

// windowKernel is a kernel whose cycles depend on the scheduler size: a
// divide, a chain of adds waiting for its quotient, and independent adds
// that a small window keeps out until the chain dispatches.
func windowKernel(arch *uarch.Arch) asmgen.Sequence {
	div, add := arch.InstrSet().Lookup("DIV_R64"), arch.InstrSet().Lookup("ADD_R64_R64")
	k := asmgen.Sequence{asmgen.MustInst(div, asmgen.RegOperand(isa.RBX))}
	k = append(k, repeatInst(asmgen.MustInst(add, asmgen.RegOperand(isa.RAX), asmgen.RegOperand(isa.RAX)), 24)...)
	for _, r := range []isa.Reg{isa.RSI, isa.RDI, isa.R8, isa.R9, isa.R10, isa.R11} {
		k = append(k, repeatInst(asmgen.MustInst(add, asmgen.RegOperand(r), asmgen.RegOperand(isa.RCX)), 20)...)
	}
	return k
}

// TestTableSeparatesSchedulerSizes reads the same kernels on one
// generation at SchedulerSize 60 and at 20, sharing one table, and requires
// the second size to recall nothing the first stored and every reading to
// be exact. One kernel reads differently at the two sizes, so a shared
// reading would be wrong.
func TestTableSeparatesSchedulerSizes(t *testing.T) {
	t.Parallel()
	arch := uarch.Get(uarch.Skylake)
	window := windowKernel(arch)
	big, small := NewWithConfig(arch, Config{SchedulerSize: 60}), NewWithConfig(arch, Config{SchedulerSize: 20})
	small.SetTable(big.table)
	if a, b := big.MustRun(window), small.MustRun(window); a == b {
		t.Fatalf("the window kernel reads alike at both sizes (%+v)", a)
	}
	kernels := append(benchShapes(arch), window)
	for _, k := range kernels {
		if _, err := runCopies(big, k, copyCounts...); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range kernels {
		checkRunCopies(t, small, k)
	}
	if _, rec := small.Readings(); rec != 0 {
		t.Errorf("SchedulerSize 20 recalled %d readings stored at 60", rec)
	}
}

// TestRecordKeyCoversEveryField changes, one at a time, every field of the
// machine record — found by reflection, so a field added later is covered
// too — and requires the key of a reading that can pay the SSE/AVX penalty
// to change: the record key (appendRecKey) covers every field but the port
// count and the penalty, and the kernel key (appendKernelKey) holds the
// penalty of such a kernel. The port count alone must leave the key as it
// is: it reaches a reading only through the templates, whose ids the key
// holds (TestTableSharedAcrossPortCounts).
func TestRecordKeyCoversEveryField(t *testing.T) {
	t.Parallel()
	m := New(uarch.Get(uarch.Skylake))
	key := func() []byte {
		m.recKey = appendRecKey(nil, m.rec)
		m.kernelKey = m.appendKernelKey(m.kernelKey[:0], avxKernels()[0])
		return bytes.Clone(m.readingKey(2))
	}
	base := key()
	leafFields(reflect.ValueOf(&m.rec).Elem(), "record", func(path string, leaf reflect.Value) {
		undo := bump(t, path, leaf)
		switch same := bytes.Equal(key(), base); {
		case path == "record.Machine.NumPorts" && !same:
			t.Errorf("changing %s changes the reading key", path)
		case path != "record.Machine.NumPorts" && same:
			t.Errorf("changing %s leaves the reading key unchanged", path)
		}
		undo()
	})
}

// TestTableSharesWhatRenameCannotTellApart reads, on every generation, the
// kernels of each sharePairs pair on two Machines that share a table: a run
// of the pair's first instance on one, then a run of its second on the
// other. The second's readings must all be recalled, and every reading
// must equal Run of the materialized copies on a private Machine.
func TestTableSharesWhatRenameCannotTellApart(t *testing.T) {
	t.Parallel()
	for _, arch := range uarch.All() {
		for _, p := range sharePairs(t, arch) {
			first, second := New(arch), New(arch)
			second.SetTable(first.table)
			a, b := repeatInst(p[0], 4), repeatInst(p[1], 4)
			checkReading(t, first, a, runReading(arch, Config{}, a), arch.Name()+", "+p[0].String())
			checkReading(t, second, b, runReading(arch, Config{}, b), arch.Name()+", "+p[1].String())
			if sim, rec := second.Readings(); sim != 0 || rec != len(copyCounts) {
				t.Errorf("%s: %s after %s: %d readings simulated and %d recalled, want 0 and %d",
					arch.Name(), p[1], p[0], sim, rec, len(copyCounts))
			}
		}
	}
}

// TestPenaltyKeyedOnlyWhereItIsPaid runs two Machines of one generation
// that share a table and whose records differ only in the SSE/AVX penalty.
// A kernel that cannot pay the penalty, read on one, is recalled on the
// other; the {avx, sse} kernel of avxKernels is simulated on both, and its
// cycles differ by the penalty. Every reading equals Run of the
// materialized copies on a private Machine of the same record.
func TestPenaltyKeyedOnlyWhereItIsPaid(t *testing.T) {
	t.Parallel()
	arch := uarch.Get(uarch.SandyBridge)
	paying, free := New(arch), New(arch)
	free.SetTable(paying.table)
	free.rec.SSEAVXPenalty = 0
	free.recKey = appendRecKey(nil, free.rec)
	penalty := paying.rec.SSEAVXPenalty
	if penalty == 0 {
		t.Fatalf("%s charges no SSE/AVX penalty", arch.Name())
	}
	// want is what a private Machine with m's record reads of k.
	want := func(m *Machine, k asmgen.Sequence) reading {
		fresh := New(arch)
		fresh.rec = m.rec
		var r reading
		for _, n := range copyCounts {
			r.counters = append(r.counters, fresh.MustRun(k.Repeat(n)))
		}
		return r
	}

	plain := shareKernels(t)[0]
	checkReading(t, paying, plain, want(paying, plain), "penalty-free kernel, paying record")
	checkReading(t, free, plain, want(free, plain), "penalty-free kernel, free record")
	if sim, rec := free.Readings(); sim != 0 || rec != len(copyCounts) {
		t.Errorf("penalty-free kernel: the free record simulated %d readings and recalled %d, want 0 and %d",
			sim, rec, len(copyCounts))
	}

	mixed := avxKernels()[0]
	checkReading(t, paying, mixed, want(paying, mixed), "{avx, sse} kernel, paying record")
	checkReading(t, free, mixed, want(free, mixed), "{avx, sse} kernel, free record")
	if sim, _ := free.Readings(); sim != len(copyCounts) {
		t.Errorf("{avx, sse} kernel: the free record simulated %d readings, want %d", sim, len(copyCounts))
	}
	a, b := free.MustRun(mixed), paying.MustRun(mixed)
	if b.Cycles-a.Cycles != penalty {
		t.Errorf("{avx, sse} kernel: %d cycles with the penalty and %d without, want %d apart", b.Cycles, a.Cycles, penalty)
	}
}

// TestTableSharedAcrossPortCounts runs a Sandy Bridge Machine (6 ports) and
// a Haswell Machine (8 ports), whose records differ only in the port count,
// on one table. Each recalls the readings of a PADDD_XMM_XMM kernel the
// other took first, a chain read first on Sandy Bridge and a throughput
// kernel read first on Haswell; a PMULLD_XMM_XMM kernel, whose templates
// differ, is simulated on both.
// Every reading equals Run of the materialized copies on a private Machine
// of the reading generation.
func TestTableSharedAcrossPortCounts(t *testing.T) {
	t.Parallel()
	snb, hsw := uarch.Get(uarch.SandyBridge), uarch.Get(uarch.Haswell)
	six, eight := New(snb), New(hsw)
	eight.SetTable(six.table)
	if six.rec.NumPorts != 6 || eight.rec.NumPorts != 8 {
		t.Fatalf("%s has %d ports and %s %d, want 6 and 8", snb.Name(), six.rec.NumPorts, hsw.Name(), eight.rec.NumPorts)
	}
	if r6, r8 := six.rec, eight.rec; r6.IssueWidth != r8.IssueWidth || r6.LoadLatency != r8.LoadLatency ||
		r6.SSEAVXPenalty != r8.SSEAVXPenalty {
		t.Fatalf("the records %+v and %+v differ in more than the port count", r6, r8)
	}
	// kernel returns a kernel of the variant name on m's generation: n
	// copies of OP XMM1, XMM2 (a chain through XMM1), or with alternate set
	// n of OP XMM1, XMM2 and OP XMM3, XMM4 in turn (two chains, so the
	// kernel reads throughput).
	kernel := func(m *Machine, name string, n int, alternate bool) asmgen.Sequence {
		in := m.arch.InstrSet().Lookup(name)
		if in == nil {
			t.Fatalf("%s missing on %s", name, m.arch.Name())
		}
		x := asmgen.MustInst(in, asmgen.RegOperand(isa.XMM1), asmgen.RegOperand(isa.XMM2))
		if !alternate {
			return repeatInst(x, n)
		}
		y := asmgen.MustInst(in, asmgen.RegOperand(isa.XMM3), asmgen.RegOperand(isa.XMM4))
		return asmgen.Sequence{x, y}.Repeat(n / 2)
	}
	// read has m read the kernel and requires it to simulate sim readings
	// and recall rec more than it had.
	read := func(m *Machine, name string, alternate bool, sim, rec int) {
		t.Helper()
		k := kernel(m, name, 8, alternate)
		sim0, rec0 := m.Readings()
		checkReading(t, m, k, runReading(m.arch, Config{}, k), m.arch.Name()+", "+name)
		if s, r := m.Readings(); s-sim0 != sim || r-rec0 != rec {
			t.Errorf("%s, %s (alternate %v): %d readings simulated and %d recalled, want %d and %d",
				m.arch.Name(), name, alternate, s-sim0, r-rec0, sim, rec)
		}
	}
	n := len(copyCounts)
	read(six, "PADDD_XMM_XMM", false, n, 0)
	read(eight, "PADDD_XMM_XMM", false, 0, n)
	read(eight, "PADDD_XMM_XMM", true, n, 0)
	read(six, "PADDD_XMM_XMM", true, 0, n)
	read(six, "PMULLD_XMM_XMM", false, n, 0)
	read(eight, "PMULLD_XMM_XMM", false, n, 0)
}

// TestTableConcurrentForks reads one table from two forks at once, each
// taking every kernel's readings twice and in its own order, and requires
// every reading to be exact and the second round to be recalled. Under
// -race it also shows that the table synchronizes itself.
func TestTableConcurrentForks(t *testing.T) {
	t.Parallel()
	arch := uarch.Get(uarch.Skylake)
	kernels := shareKernels(t)
	want := make([]reading, len(kernels))
	for i, k := range kernels {
		want[i] = runReading(arch, Config{}, k)
	}
	parent := New(arch)
	forks := []*Machine{parent.Clone(), parent.Clone()}
	var wg sync.WaitGroup
	for f, m := range forks {
		wg.Add(1)
		go func(f int, m *Machine) {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				for j := range kernels {
					i := j
					if f == 1 {
						i = len(kernels) - 1 - j
					}
					got, err := runCopies(m, kernels[i], copyCounts...)
					if err != nil {
						t.Errorf("fork %d, kernel %d: %v", f, i, err)
						return
					}
					for n := range got {
						if got[n] != want[i].counters[n] {
							t.Errorf("fork %d, kernel %d, %d copies: RunCopies %+v, Run %+v", f, i, copyCounts[n], got[n], want[i].counters[n])
						}
					}
				}
			}
		}(f, m)
	}
	wg.Wait()
	readings := 2 * 2 * len(kernels) * len(copyCounts)
	st := parent.table.Stats()
	if st.Hits+st.Misses != readings || st.Hits < readings/2 {
		t.Errorf("table stats %+v: want %d lookups, at least half of them hits", st, readings)
	}
}

// TestTableClaimsSimulateEachKeyOnce runs clones that share one table on
// the same kernels at once, most of them in one order and one in the
// reverse, so that clones miss one key at the same time, and requires each
// key to be simulated once: the table's misses equal the distinct keys of
// the kernels, and every reading equals Run of the materialized copies.
// Under -race it also shows that claims and waits synchronize.
func TestTableClaimsSimulateEachKeyOnce(t *testing.T) {
	t.Parallel()
	arch := uarch.Get(uarch.Skylake)
	kernels := shareKernels(t)
	want := make([]reading, len(kernels))
	keys := make(map[string]bool)
	probe := New(arch)
	for i, k := range kernels {
		if want[i] = runReading(arch, Config{}, k); want[i].err != nil {
			t.Fatalf("kernel %d does not drain: %v", i, want[i].err)
		}
		probe.kernelKey = probe.appendKernelKey(probe.kernelKey[:0], k)
		for _, n := range copyCounts {
			keys[string(probe.readingKey(n))] = true
		}
	}
	const clones = 4
	parent := New(arch)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := range clones {
		m := parent.Clone()
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got := make([]Counters, len(copyCounts))
			for j := range kernels {
				i := j
				if c == clones-1 {
					i = len(kernels) - 1 - j
				}
				if err := m.RunCopies(kernels[i], copyCounts, got); err != nil {
					t.Errorf("clone %d, kernel %d: %v", c, i, err)
					return
				}
				if !slices.Equal(got, want[i].counters) {
					t.Errorf("clone %d, kernel %d: RunCopies %+v, Run %+v", c, i, got, want[i].counters)
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	st := parent.table.Stats()
	if lookups := clones * len(kernels) * len(copyCounts); st.Misses != len(keys) || st.Hits+st.Misses != lookups {
		t.Errorf("table stats %+v: want %d misses, one per distinct key, of %d lookups", st, len(keys), lookups)
	}
	if len(parent.table.claims) != 0 {
		t.Errorf("%d claims outlived their RunCopies calls", len(parent.table.claims))
	}
}

// TestTableClaimReleasedOnFailure has one clone claim the reading of a
// kernel that cannot drain, as its RunCopies does before simulating, while
// other clones miss that reading and wait. The claimed run fails and
// releases the claim unstored: every waiter then simulates the reading in
// turn and gets the kernel's error, and a later RunCopies of it returns,
// so no claim leaks.
func TestTableClaimReleasedOnFailure(t *testing.T) {
	t.Parallel()
	arch := uarch.Get(uarch.Skylake)
	div := repeatInst(asmgen.MustInst(arch.InstrSet().Lookup("DIV_R64"), asmgen.RegOperand(isa.RBX)), 8)
	parent := NewWithConfig(arch, Config{MaxCycles: 1000})
	copies := []int{12}
	_, want := parent.Clone().Run(div.Repeat(12))
	if want == nil {
		t.Fatal("12 copies of the divider chain drain in 1000 cycles")
	}

	owner := parent.Clone()
	owner.kernelKey = owner.appendKernelKey(owner.kernelKey[:0], div)
	owner.missed = owner.missed[:0]
	owner.recall(copies, make([]Counters, 1))
	if len(owner.missed) != 1 || !owner.missed[0].claimed {
		t.Fatalf("the owner's lookup left %+v, want one claimed miss", owner.missed)
	}

	const waiters = 3
	errs := make(chan error, waiters)
	for range waiters {
		m := parent.Clone()
		go func() { errs <- m.RunCopies(div, copies, make([]Counters, 1)) }()
	}
	time.Sleep(20 * time.Millisecond) // let the waiters reach the claim
	select {
	case err := <-errs:
		t.Fatalf("a RunCopies returned %v while another clone held its reading's claim", err)
	default:
	}
	if _, err := owner.run(div, copies[0]); fmt.Sprint(err) != fmt.Sprint(want) {
		t.Fatalf("the owner's run: error %v, want %v", err, want)
	}
	owner.settle(nil, 0)
	for range waiters {
		if err := <-errs; fmt.Sprint(err) != fmt.Sprint(want) {
			t.Errorf("a waiter's RunCopies: error %v, want %v", err, want)
		}
	}
	if err := parent.RunCopies(div, copies, make([]Counters, 1)); fmt.Sprint(err) != fmt.Sprint(want) {
		t.Errorf("RunCopies after the failures: error %v, want %v", err, want)
	}
	if st := parent.table.Stats(); st.Misses != waiters+2 || st.Hits != 0 {
		t.Errorf("table stats %+v: want %d misses, every lookup of a reading that never stores, and no hits", st, waiters+2)
	}
	if len(parent.table.claims) != 0 {
		t.Errorf("%d claims outlived the failed runs", len(parent.table.claims))
	}
}
