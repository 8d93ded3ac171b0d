package engine

import (
	"bytes"
	"testing"

	"uopsinfo/internal/uarch"
)

// sharedReadings pins, per generation, the readings simulated (the reading
// table's misses) when one fresh engine at one worker characterizes every
// 16th variant of Skylake, then Kaby Lake, then Coffee Lake: an exact count
// of the simulator's work. In this model Kaby Lake and Coffee Lake are the
// same machine as Skylake (TestCountersGolden's digests for the three are
// equal), so they simulate nothing.
var sharedReadings = map[uarch.Generation]int{
	uarch.Skylake:    2320,
	uarch.KabyLake:   0,
	uarch.CoffeeLake: 0,
}

// TestReadingTableSharedAcrossGenerations runs the characterizations of
// sharedReadings on one engine, pins each generation's simulated readings
// through Stats, and requires each generation's XML to equal that of a
// fresh engine of its own.
func TestReadingTableSharedAcrossGenerations(t *testing.T) {
	t.Parallel()
	pinReadings(t, sharedReadings, uarch.Skylake, uarch.KabyLake, uarch.CoffeeLake)
}

// penaltyReadings pins, per generation, the readings simulated when one
// fresh engine at one worker characterizes every 16th variant of the first
// generation of a pair and then of the second. The two records of a pair
// differ only in the SSE/AVX penalty (Nehalem charges none and Sandy Bridge
// 70 cycles, Haswell 70 and Skylake none), so the second simulates only
// what the first did not read: the variants they decode differently and
// the kernels that can pay the penalty. Alone, Sandy Bridge simulates 2142
// readings and Skylake 2320 (TestCountersGolden).
var penaltyReadings = [][2]struct {
	gen       uarch.Generation
	simulated int
}{
	{{uarch.Nehalem, 1476}, {uarch.SandyBridge, 1418}},
	{{uarch.Haswell, 2282}, {uarch.Skylake, 1366}},
}

// TestReadingTableSharedAcrossPenalties runs the pairs of penaltyReadings,
// each on an engine of its own, pins each generation's simulated readings,
// and requires each generation's XML to equal that of a fresh engine.
func TestReadingTableSharedAcrossPenalties(t *testing.T) {
	t.Parallel()
	for _, pair := range penaltyReadings {
		pinReadings(t, map[uarch.Generation]int{pair[0].gen: pair[0].simulated, pair[1].gen: pair[1].simulated},
			pair[0].gen, pair[1].gen)
	}
}

// portReadings pins, as penaltyReadings does, the readings simulated when
// one fresh engine at one worker characterizes every 16th variant of Sandy
// Bridge and then of Haswell. Their records differ only in the port count
// (6 and 8), which the reading key leaves out, so Haswell simulates only
// the kernels whose templates differ from Sandy Bridge's. Alone, Haswell
// simulates 2282 readings (TestCountersGolden).
var portReadings = map[uarch.Generation]int{
	uarch.SandyBridge: 2142,
	uarch.Haswell:     1984,
}

// TestReadingTableSharedAcrossPortCounts runs the characterizations of
// portReadings on one engine, Sandy Bridge first, pins each generation's
// simulated readings, and requires each generation's XML to equal that of a
// fresh engine.
func TestReadingTableSharedAcrossPortCounts(t *testing.T) {
	t.Parallel()
	pinReadings(t, portReadings, uarch.SandyBridge, uarch.Haswell)
}

// pinReadings characterizes every 16th variant of each of gens in turn on
// one fresh engine at one worker, requires each generation to simulate
// want[gen] readings (the reading table's misses), and its XML to equal
// that of a fresh engine of its own.
func pinReadings(t *testing.T, want map[uarch.Generation]int, gens ...uarch.Generation) {
	t.Helper()
	shared := mustNew(t, Config{Workers: 1})
	for _, gen := range gens {
		var only []string
		for i, in := range uarch.Get(gen).InstrSet().Instrs() {
			if i%16 == 0 {
				only = append(only, in.Name)
			}
		}
		before := shared.Stats()
		got := genXML(t, shared, gen, RunOptions{Only: only})
		after := shared.Stats()
		if sim := after.ReadingMisses - before.ReadingMisses; sim != want[gen] {
			t.Errorf("%s: %d readings simulated (%d recalled), want %d", gen, sim,
				after.ReadingHits-before.ReadingHits, want[gen])
		}
		if fresh := genXML(t, mustNew(t, Config{Workers: 1}), gen, RunOptions{Only: only}); !bytes.Equal(got, fresh) {
			t.Errorf("%s: the XML of the shared engine differs from a fresh engine's", gen)
		}
	}
}
