package measure

import (
	"math/rand"
	"reflect"
	"testing"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/isa"
	"uopsinfo/internal/pipesim"
	"uopsinfo/internal/uarch"
)

// Tests of the reading plan: Measure reads each copy count once, and the
// result is the result of the protocol that re-reads them.

// referenceMeasure is the protocol as it reads on paper: a discarded warm-up
// reading of the short copy count, then a short and a long reading on every
// repetition, each a Run of freshly materialized copies.
func referenceMeasure(r Runner, cfg Config, code asmgen.Sequence) (Result, error) {
	cfg = NewWithConfig(r, cfg).Config()
	read := func(n int) (pipesim.Counters, error) {
		c, err := r.Run(code.Repeat(n))
		if err != nil {
			return c, err
		}
		c.Cycles += cfg.OverheadCycles
		c.TotalUops += cfg.OverheadUops
		c.IssuedUops += cfg.OverheadUops
		for i := 0; i < cfg.OverheadUops; i++ {
			c.PortUops[i%2]++
		}
		return c, nil
	}
	if cfg.Warmup {
		if _, err := read(cfg.ShortCopies); err != nil {
			return Result{}, err
		}
	}
	numPorts := r.Arch().NumPorts()
	var acc Result
	for rep := 0; rep < cfg.Repetitions; rep++ {
		short, err := read(cfg.ShortCopies)
		if err != nil {
			return Result{}, err
		}
		long, err := read(cfg.LongCopies)
		if err != nil {
			return Result{}, err
		}
		diff := long.Sub(short)
		scale := float64(cfg.LongCopies - cfg.ShortCopies)
		acc.Cycles += float64(diff.Cycles) / scale
		acc.TotalUops += float64(diff.TotalUops) / scale
		acc.IssuedUops += float64(diff.IssuedUops) / scale
		acc.ElimUops += float64(diff.ElimUops) / scale
		for p := 0; p < numPorts; p++ {
			acc.PortUops[p] += float64(diff.PortUops[p]) / scale
		}
	}
	inv := 1.0 / float64(cfg.Repetitions)
	acc.Cycles *= inv
	acc.TotalUops *= inv
	acc.IssuedUops *= inv
	acc.ElimUops *= inv
	for p := range acc.PortUops {
		acc.PortUops[p] *= inv
	}
	return acc, nil
}

// benchShapes are the code shapes of pipesim's Run benchmarks: independent
// ALU ops, a dependency chain, a port-blocking sequence, a load/store mix,
// a saturated scheduler window and late-waking consumers.
func benchShapes(arch *uarch.Arch) []asmgen.Sequence {
	set := arch.InstrSet()
	add, imul := set.Lookup("ADD_R64_R64"), set.Lookup("IMUL_R64_R64")
	reg := asmgen.RegOperand
	gprs := []isa.Reg{isa.RAX, isa.RBX, isa.RCX, isa.RDX, isa.RSI, isa.RDI, isa.R8, isa.R9}
	var alu, chain, window, blocking, mix, scattered asmgen.Sequence
	for i := 0; i < 256; i++ {
		r := gprs[i%len(gprs)]
		alu = append(alu, asmgen.MustInst(add, reg(r), reg(r)))
		chain = append(chain, asmgen.MustInst(imul, reg(isa.RAX), reg(isa.RAX)))
		window = append(window, asmgen.MustInst(imul, reg(r), reg(r)))
	}
	blocker := asmgen.MustInst(set.Lookup("PSHUFD_XMM_XMM_I8"), reg(isa.XMM1), reg(isa.XMM2), asmgen.ImmOperand(0x1b))
	for i := 0; i < 64; i++ {
		blocking = append(blocking, blocker)
	}
	blocking = append(blocking, asmgen.MustInst(set.Lookup("MOVQ2DQ_XMM_MM"), reg(isa.XMM3), reg(isa.MM0)))
	store, load := set.Lookup("MOV_M64_R64"), set.Lookup("MOV_R64_M64")
	for i := 0; i < 128; i++ {
		addr := uint64(0x1000 + 64*i)
		mix = append(mix, asmgen.MustInst(store, asmgen.MemOperand(isa.RSI, addr), reg(isa.RBX)),
			asmgen.MustInst(load, reg(isa.RCX), asmgen.MemOperand(isa.RSI, addr)))
	}
	for block := 0; block < 16; block++ {
		scattered = append(scattered, asmgen.MustInst(imul, reg(isa.RAX), reg(isa.RAX)))
		for _, r := range []isa.Reg{isa.RBX, isa.RCX, isa.RDX, isa.RSI, isa.RDI, isa.R8, isa.R9, isa.R10,
			isa.R11, isa.R12, isa.R13, isa.R14, isa.R15} {
			scattered = append(scattered, asmgen.MustInst(add, reg(r), reg(isa.RAX)))
		}
	}
	return []asmgen.Sequence{alu, chain, blocking, mix, window, scattered}
}

// planConfigs are the configurations the reading plan is checked under.
func planConfigs() map[string]Config {
	reps := DefaultConfig()
	reps.Repetitions, reps.Warmup = 3, true
	return map[string]Config{"default": DefaultConfig(), "repetitions-3": reps}
}

// TestMeasureMatchesReferenceProtocol: one short and one long reading give
// exactly the results of the protocol with a warm-up and per-repetition
// readings, on the benchmark shapes and random sequences, through one warm
// harness.
func TestMeasureMatchesReferenceProtocol(t *testing.T) {
	t.Parallel()
	arch := uarch.Get(uarch.Skylake)
	seqs := append(benchShapes(arch), randomSequences(t, arch, 60, rand.New(rand.NewSource(13)))...)
	for name, cfg := range planConfigs() {
		h := NewWithConfig(pipesim.New(arch), cfg)
		for i, seq := range seqs {
			want, err := referenceMeasure(pipesim.New(arch), cfg, seq)
			if err != nil {
				t.Fatalf("%s: sequence %d: reference: %v", name, i, err)
			}
			got, err := h.Measure(seq)
			if err != nil {
				t.Fatalf("%s: sequence %d: %v", name, i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: sequence %d: Measure %+v, reference protocol %+v", name, i, got, want)
			}
		}
	}
}

// countingRunner is a plain Runner that records the length of every
// sequence it runs. It holds its Machine in a field: embedding it would
// promote Machine.RunCopies and bypass Run.
type countingRunner struct {
	m    *pipesim.Machine
	lens []int
}

func (r *countingRunner) Arch() *uarch.Arch { return r.m.Arch() }

func (r *countingRunner) Run(code asmgen.Sequence) (pipesim.Counters, error) {
	r.lens = append(r.lens, len(code))
	return r.m.Run(code)
}

// TestMeasureReadsEachCopyCountOnce: a plain runner sees one Run of the
// short copies and one of the long copies per Measure, whatever the
// repetition count and warm-up setting.
func TestMeasureReadsEachCopyCountOnce(t *testing.T) {
	t.Parallel()
	arch := uarch.Get(uarch.Skylake)
	seqs := randomSequences(t, arch, 10, rand.New(rand.NewSource(7)))
	for name, cfg := range planConfigs() {
		r := &countingRunner{m: pipesim.New(arch)}
		h := NewWithConfig(r, cfg)
		for _, seq := range seqs {
			r.lens = nil
			if _, err := h.Measure(seq); err != nil {
				t.Fatal(err)
			}
			want := []int{len(seq) * cfg.ShortCopies, len(seq) * cfg.LongCopies}
			if !reflect.DeepEqual(r.lens, want) {
				t.Fatalf("%s: Run lengths %v, want exactly %v", name, r.lens, want)
			}
		}
	}
}

// copiesRunner is a CopiesRunner recording its calls; its Run must not be
// used.
type copiesRunner struct {
	*pipesim.Machine
	calls [][]int
	runs  int
}

func (r *copiesRunner) Run(code asmgen.Sequence) (pipesim.Counters, error) {
	r.runs++
	return r.Machine.Run(code)
}

func (r *copiesRunner) RunCopies(code asmgen.Sequence, copies ...int) ([]pipesim.Counters, error) {
	r.calls = append(r.calls, append([]int{len(code)}, copies...))
	out := make([]pipesim.Counters, len(copies))
	for i, n := range copies {
		c, err := r.Machine.Run(code.Repeat(n))
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// TestMeasureUsesRunCopies: a CopiesRunner gets one RunCopies call per
// Measure, with the unrepeated code and both copy counts, and the result is
// the plain runner's.
func TestMeasureUsesRunCopies(t *testing.T) {
	t.Parallel()
	arch := uarch.Get(uarch.Skylake)
	seqs := append(benchShapes(arch)[:2], randomSequences(t, arch, 10, rand.New(rand.NewSource(11)))...)
	for name, cfg := range planConfigs() {
		r := &copiesRunner{Machine: pipesim.New(arch)}
		h := NewWithConfig(r, cfg)
		plain := NewWithConfig(pipesim.New(arch), cfg)
		for i, seq := range seqs {
			r.calls = nil
			got, err := h.Measure(seq)
			if err != nil {
				t.Fatal(err)
			}
			want, err := plain.Measure(seq)
			if err != nil {
				t.Fatal(err)
			}
			if call := []int{len(seq), cfg.ShortCopies, cfg.LongCopies}; !reflect.DeepEqual(r.calls, [][]int{call}) {
				t.Fatalf("%s: sequence %d: RunCopies calls (code length, copies...) %v, want exactly %v", name, i, r.calls, call)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: sequence %d: through RunCopies %+v, through Run %+v", name, i, got, want)
			}
		}
		if r.runs != 0 {
			t.Errorf("%s: harness called Run %d times on a CopiesRunner", name, r.runs)
		}
	}
}
