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
	uarch.Skylake:    2496,
	uarch.KabyLake:   0,
	uarch.CoffeeLake: 0,
}

// TestReadingTableSharedAcrossGenerations runs the characterizations of
// sharedReadings on one engine, pins each generation's simulated readings
// through Stats, and requires each generation's XML to equal that of a
// fresh engine of its own.
func TestReadingTableSharedAcrossGenerations(t *testing.T) {
	t.Parallel()
	shared := mustNew(t, Config{Workers: 1})
	for _, gen := range []uarch.Generation{uarch.Skylake, uarch.KabyLake, uarch.CoffeeLake} {
		var only []string
		for i, in := range uarch.Get(gen).InstrSet().Instrs() {
			if i%16 == 0 {
				only = append(only, in.Name)
			}
		}
		before := shared.Stats()
		got := genXML(t, shared, gen, RunOptions{Only: only})
		after := shared.Stats()
		if sim := after.ReadingMisses - before.ReadingMisses; sim != sharedReadings[gen] {
			t.Errorf("%s: %d readings simulated (%d recalled), want %d", gen, sim,
				after.ReadingHits-before.ReadingHits, sharedReadings[gen])
		}
		if want := genXML(t, mustNew(t, Config{Workers: 1}), gen, RunOptions{Only: only}); !bytes.Equal(got, want) {
			t.Errorf("%s: the XML of the shared engine differs from a fresh engine's", gen)
		}
	}
}
