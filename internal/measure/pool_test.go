package measure

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/isa"
	"uopsinfo/internal/pipesim"
	"uopsinfo/internal/uarch"
)

// randomSequences builds deterministic pseudo-random sequences from a pool of
// concrete instructions covering ALU/multiply chains, eliminable moves, zero
// idioms, vector-domain mixes, the divider, and loads/stores with overlapping
// addresses — enough variety that batching artifacts (leaked machine state)
// would show up as counter differences.
func randomSequences(t *testing.T, arch *uarch.Arch, n int, rng *rand.Rand) []asmgen.Sequence {
	t.Helper()
	lookup := func(name string) *isa.Instr {
		in := arch.InstrSet().Lookup(name)
		if in == nil {
			t.Fatalf("variant %s missing on %s", name, arch.Name())
		}
		return in
	}
	gprs := []isa.Reg{isa.RAX, isa.RBX, isa.RCX, isa.RDX, isa.RSI, isa.RDI}
	xmms := []isa.Reg{isa.XMM0, isa.XMM1, isa.XMM2, isa.XMM3}

	var pool []*asmgen.Inst
	add := lookup("ADD_R64_R64")
	imul := lookup("IMUL_R64_R64")
	mov := lookup("MOV_R64_R64")
	pxor := lookup("PXOR_XMM_XMM")
	addps := lookup("ADDPS_XMM_XMM")
	div := lookup("DIV_R64")
	st := lookup("MOV_M64_R64")
	ld := lookup("MOV_R64_M64")
	for _, a := range gprs {
		for _, b := range gprs[:3] {
			pool = append(pool,
				asmgen.MustInst(add, asmgen.RegOperand(a), asmgen.RegOperand(b)),
				asmgen.MustInst(mov, asmgen.RegOperand(a), asmgen.RegOperand(b)))
		}
		pool = append(pool, asmgen.MustInst(imul, asmgen.RegOperand(a), asmgen.RegOperand(a)))
	}
	for _, x := range xmms {
		pool = append(pool,
			asmgen.MustInst(pxor, asmgen.RegOperand(x), asmgen.RegOperand(x)),
			asmgen.MustInst(addps, asmgen.RegOperand(x), asmgen.RegOperand(xmms[0])))
	}
	pool = append(pool, asmgen.MustInst(div, asmgen.RegOperand(isa.RBX)))
	for i := 0; i < 3; i++ {
		addr := uint64(0x3000 + 8*i)
		pool = append(pool,
			asmgen.MustInst(st, asmgen.MemOperand(isa.RSI, addr), asmgen.RegOperand(isa.RBX)),
			asmgen.MustInst(ld, asmgen.RegOperand(isa.RCX), asmgen.MemOperand(isa.RSI, addr)))
	}

	seqs := make([]asmgen.Sequence, n)
	for i := range seqs {
		length := 1 + rng.Intn(30)
		seq := make(asmgen.Sequence, 0, length)
		for j := 0; j < length; j++ {
			seq = append(seq, pool[rng.Intn(len(pool))])
		}
		seqs[i] = seq
	}
	return seqs
}

func resultsEqual(a, b Result) bool {
	if a.Cycles != b.Cycles || a.TotalUops != b.TotalUops ||
		a.IssuedUops != b.IssuedUops || a.ElimUops != b.ElimUops ||
		len(a.PortUops) != len(b.PortUops) {
		return false
	}
	for i := range a.PortUops {
		if a.PortUops[i] != b.PortUops[i] {
			return false
		}
	}
	return true
}

// TestPoolBatchingInvariance is the batching property test: running N random
// variant sequences back to back through ONE pooled harness (warm machine)
// must produce exactly the same measurement results — and the same raw
// simulator counters — as running each sequence on a fresh machine with a
// fresh harness. 200 sequences across 3 generations.
func TestPoolBatchingInvariance(t *testing.T) {
	t.Parallel()
	for _, gen := range []uarch.Generation{uarch.Skylake, uarch.SandyBridge, uarch.Haswell} {
		gen := gen
		t.Run(gen.String(), func(t *testing.T) {
			t.Parallel()
			arch := uarch.Get(gen)
			rng := rand.New(rand.NewSource(0x9001 + int64(gen)))
			seqs := randomSequences(t, arch, 200, rng)

			pool := NewPool(New(pipesim.New(arch)))
			batched, _, err := pool.Get()
			if err != nil {
				t.Fatal(err)
			}
			for i, seq := range seqs {
				want, err := New(pipesim.New(arch)).Measure(seq)
				if err != nil {
					t.Fatalf("sequence %d: fresh: %v", i, err)
				}
				got, err := batched.Measure(seq)
				if err != nil {
					t.Fatalf("sequence %d: batched: %v", i, err)
				}
				if !resultsEqual(want, got) {
					t.Fatalf("sequence %d: fresh %+v, batched %+v", i, want, got)
				}
				// The raw counters must match too (the Result averaging could
				// mask an off-by-constant in the underlying runs).
				cw, err := pipesim.New(arch).Run(seq)
				if err != nil {
					t.Fatal(err)
				}
				cg, err := batched.Runner().Run(seq)
				if err != nil {
					t.Fatal(err)
				}
				if cw.Cycles != cg.Cycles || cw.TotalUops != cg.TotalUops ||
					cw.IssuedUops != cg.IssuedUops || cw.ElimUops != cg.ElimUops {
					t.Fatalf("sequence %d: fresh counters %+v, batched counters %+v", i, cw, cg)
				}
			}
			pool.Put(batched)
		})
	}
}

// TestPoolReuse pins the pool contract: Get after Put returns the same warm
// harness (reused), Get on an empty pool forks, and the counters record both.
func TestPoolReuse(t *testing.T) {
	t.Parallel()
	arch := uarch.Get(uarch.Skylake)
	pool := NewPool(New(pipesim.New(arch)))

	a, reused, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Fatal("first Get reported reused")
	}
	b, reused, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if reused || b == a {
		t.Fatal("second Get must fork a distinct harness")
	}
	pool.Put(a)
	if pool.Idle() != 1 {
		t.Fatalf("idle = %d, want 1", pool.Idle())
	}
	c, reused, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if !reused || c != a {
		t.Fatalf("Get after Put: reused=%v, same=%v; want warm harness back", reused, c == a)
	}
	pool.Put(b)
	pool.Put(c)
	s := pool.Stats()
	if s.Forked != 2 || s.Reused != 1 {
		t.Fatalf("stats = %+v, want Forked=2 Reused=1", s)
	}
}

// TestPoolConcurrent hammers one pool from many goroutines (run under -race
// in CI): every worker checks harnesses in and out and measures on them; the
// results must match a reference measurement on a fresh stack.
func TestPoolConcurrent(t *testing.T) {
	t.Parallel()
	arch := uarch.Get(uarch.Skylake)
	rng := rand.New(rand.NewSource(0xbeef))
	seqs := randomSequences(t, arch, 16, rng)
	want := make([]Result, len(seqs))
	for i, seq := range seqs {
		r, err := New(pipesim.New(arch)).Measure(seq)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	pool := NewPool(New(pipesim.New(arch)))
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				h, _, err := pool.Get()
				if err != nil {
					errs <- err
					return
				}
				i := (w + round) % len(seqs)
				got, err := h.Measure(seqs[i])
				pool.Put(h)
				if err != nil {
					errs <- err
					return
				}
				if !resultsEqual(want[i], got) {
					errs <- fmt.Errorf("worker %d round %d: pooled %+v, fresh %+v", w, round, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s := pool.Stats()
	if s.Forked+s.Reused != 80 {
		t.Fatalf("stats = %+v, want Forked+Reused = 80", s)
	}
}
