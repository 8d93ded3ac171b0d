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
	uarch.Nehalem:     "b35c0467b857cf87e515304683c2c78c63af49619acb4e9cb16a8ed988a77cb8",
	uarch.Westmere:    "03ac4588cbdde041a1875621165435256fcd43773e522a34335c693cdf14cf5e",
	uarch.SandyBridge: "eacd5d5e59b2c65714ee8cdd7f9b8f1e8ef92d74be3fd666bea4debf873bfc74",
	uarch.IvyBridge:   "f21097f699c5b40b55861ad1d53ef7635218326a29ab776be847f90a8ca2c2ff",
	uarch.Haswell:     "c585a73500e1784abe34d42a334ab7453ac3b4c9286a583d3fa9bd41c909953a",
	uarch.Broadwell:   "3413183ceb1666df2820647ea3629ee9f75acdd739da64b9e38aeba90310828e",
	uarch.Skylake:     "0bcfb83c32dc9083c67ac7a2f5ee5625f7d8655af978ecae4ab82de12b5adab1",
	uarch.KabyLake:    "0bcfb83c32dc9083c67ac7a2f5ee5625f7d8655af978ecae4ab82de12b5adab1",
	uarch.CoffeeLake:  "0bcfb83c32dc9083c67ac7a2f5ee5625f7d8655af978ecae4ab82de12b5adab1",
}

// goldenReadings pins, per generation, the readings the Machine of
// TestCountersGolden simulates and recalls from its private table
// (Readings): an exact count of the simulator's work. A change that
// simulates more (a key that separates more than rename reads, a smaller
// table) or recalls more moves it; the digests above say whether the
// counters stayed exact.
var goldenReadings = map[uarch.Generation][2]int{
	uarch.Nehalem:     {1476, 1236},
	uarch.Westmere:    {1506, 1242},
	uarch.SandyBridge: {2142, 1756},
	uarch.IvyBridge:   {2104, 1780},
	uarch.Haswell:     {2282, 2604},
	uarch.Broadwell:   {2292, 2600},
	uarch.Skylake:     {2320, 2718},
	uarch.KabyLake:    {2320, 2718},
	uarch.CoffeeLake:  {2320, 2718},
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
		for _, v := range c.PortUops[:r.m.Arch().NumPorts()] {
			b = binary.AppendVarint(b, int64(v))
		}
	}
	r.h.Write(b)
	r.buf = b
}

var _ measure.CopiesRunner = (*foldRunner)(nil)

// TestCountersGolden replays a sampled serial characterization of every
// generation against a fresh Machine and compares the folded raw counters
// with the recorded digests, and the Machine's reading counts with
// goldenReadings.
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
			sim, rec := r.m.Readings()
			if want := goldenReadings[arch.Gen()]; sim != want[0] || rec != want[1] {
				t.Errorf("%d readings simulated and %d recalled, want %d and %d", sim, rec, want[0], want[1])
			}
		})
	}
}
