package pipesim_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/core"
	"uopsinfo/internal/measure"
	"uopsinfo/internal/pipesim"
	"uopsinfo/internal/uarch"
)

// goldenStride selects every goldenStride-th variant of each generation for
// TestCountersGolden.
const goldenStride = 16

// goldenCounterDigests pins, per generation, the sha256 over every reading a
// serial characterization of every goldenStride-th variant takes (blocking
// discovery included): each reading's sequence length (copies included) and
// raw Counters, in call order. The XML digests of the end-to-end benchmark
// round the counters through the inference algorithms, so a changed counter
// can hide there; here it cannot. The digests are data, not a tolerance: a
// simulator change that moves them changes simulated behaviour, and must
// bump Version.
var goldenCounterDigests = map[uarch.Generation]string{
	uarch.Nehalem:     "5619be82dfc5b3799e4dabd545931d505a0d4ffc291140a88f1dfee8734f1a6b",
	uarch.Westmere:    "fdd37533a00ae9b98618a6b2703ed6d6cd695179c861b1be4628fea2e223bf9a",
	uarch.SandyBridge: "d5a25d84294d0a1eec6cbeaadbf20d3fa49718c8cb4891af834acb5c3e3adca3",
	uarch.IvyBridge:   "3c9446405ff55b511da39fe71c37a557fdff87ae67bc2b560f826efc2c7bf982",
	uarch.Haswell:     "7497eaaff24d7e33a6eb29f453ec28033e2c174565145d865750811dce177238",
	uarch.Broadwell:   "9800d261dcda2347f213249f40c631f8d076816181ebcc298793cd0fe6f34fe9",
	uarch.Skylake:     "15b4acf27b02f5d91cb183510b973ffb8cab20e51d19453081b8791bcfa66105",
	uarch.KabyLake:    "15b4acf27b02f5d91cb183510b973ffb8cab20e51d19453081b8791bcfa66105",
	uarch.CoffeeLake:  "15b4acf27b02f5d91cb183510b973ffb8cab20e51d19453081b8791bcfa66105",
}

// foldRunner is a measure.CopiesRunner that folds every reading's sequence
// length and counters into a hash, in call order. Run folds len(code);
// RunCopies forwards one count n at a time and folds n*len(code), so its
// readings — a failing one included — fold exactly as Runs of the
// materialized copies would.
type foldRunner struct {
	m   *pipesim.Machine
	h   hash.Hash
	buf []byte
}

func (r *foldRunner) Arch() *uarch.Arch { return r.m.Arch() }

func (r *foldRunner) SetDividerValues(v pipesim.DividerValues) { r.m.SetDividerValues(v) }

func (r *foldRunner) Run(code asmgen.Sequence) (pipesim.Counters, error) {
	c, err := r.m.Run(code)
	r.fold(len(code), c, err)
	return c, err
}

func (r *foldRunner) RunCopies(code asmgen.Sequence, copies ...int) ([]pipesim.Counters, error) {
	out := make([]pipesim.Counters, len(copies))
	for i, n := range copies {
		cs, err := r.m.RunCopies(code, n)
		if err != nil {
			r.fold(n*len(code), pipesim.Counters{}, err)
			return nil, err
		}
		r.fold(n*len(code), cs[0], nil)
		out[i] = cs[0]
	}
	return out, nil
}

func (r *foldRunner) fold(n int, c pipesim.Counters, err error) {
	b := binary.AppendVarint(r.buf[:0], int64(n))
	if err != nil {
		b = append(b, err.Error()...)
	} else {
		for _, v := range []int{c.Cycles, c.TotalUops, c.IssuedUops, c.ElimUops} {
			b = binary.AppendVarint(b, int64(v))
		}
		for _, v := range c.PortUops {
			b = binary.AppendVarint(b, int64(v))
		}
	}
	r.h.Write(b)
	r.buf = b
}

var _ measure.CopiesRunner = (*foldRunner)(nil)

// TestCountersGolden replays a sampled serial characterization of every
// generation against a fresh Machine and compares the folded raw counters
// with the recorded digests.
func TestCountersGolden(t *testing.T) {
	t.Parallel()
	for _, arch := range uarch.All() {
		arch := arch
		t.Run(arch.Name(), func(t *testing.T) {
			t.Parallel()
			var only []string
			for i, in := range arch.InstrSet().Instrs() {
				if i%goldenStride == 0 {
					only = append(only, in.Name)
				}
			}
			r := &foldRunner{m: pipesim.New(arch), h: sha256.New()}
			c := core.New(measure.NewWithConfig(r, measure.DefaultConfig()))
			if _, err := c.CharacterizeAll(core.Options{Only: only, Workers: 1}); err != nil {
				t.Fatal(err)
			}
			got := hex.EncodeToString(r.h.Sum(nil))
			if want := goldenCounterDigests[arch.Gen()]; got != want {
				t.Errorf("counter digest over %d variants = %s, want %s", len(only), got, want)
			}
		})
	}
}
