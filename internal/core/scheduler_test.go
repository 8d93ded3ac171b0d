package core

import (
	"reflect"
	"testing"

	"uopsinfo/internal/measure"
	"uopsinfo/internal/pipesim"
	"uopsinfo/internal/uarch"
)

// sampleNames returns every step-th variant name of the characterizer's
// instruction set.
func sampleNames(c *Characterizer, step int) []string {
	instrs := c.gen.set.Instrs()
	var names []string
	for i := 0; i < len(instrs); i += step {
		names = append(names, instrs[i].Name)
	}
	return names
}

func TestForkSharesBlockingAndMeasuresIdentically(t *testing.T) {
	c := charFor(t, uarch.Skylake)
	f, err := c.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if f.blocking != c.blocking {
		t.Error("fork does not share the discovered blocking set")
	}
	if f.gen == c.gen || f.gen.h == c.gen.h {
		t.Error("fork shares the mutable generator or harness state")
	}
	in := variant(t, c, "IMUL_R64_R64")
	want, err := c.CharacterizeInstr(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.CharacterizeInstr(in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("forked characterizer disagrees with parent:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestCharacterizeAllWorkerInvariance is the core determinism guarantee of
// the sharded scheduler: the merged result must be identical to a sequential
// run for any worker count.
func TestCharacterizeAllWorkerInvariance(t *testing.T) {
	c := charFor(t, uarch.Skylake)
	only := sampleNames(c, 60)
	if len(only) < 10 {
		t.Fatalf("sample too small: %d variants", len(only))
	}
	want, err := c.CharacterizeAll(Options{Only: only, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := c.CharacterizeAll(Options{Only: only, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Arch != want.Arch || len(got.Results) != len(want.Results) {
			t.Fatalf("workers=%d: got %d results for %q, want %d for %q",
				workers, len(got.Results), got.Arch, len(want.Results), want.Arch)
		}
		for _, name := range want.Names() {
			if !reflect.DeepEqual(got.Results[name], want.Results[name]) {
				t.Errorf("workers=%d: %s differs:\ngot  %+v\nwant %+v",
					workers, name, got.Results[name], want.Results[name])
			}
		}
	}
}

// TestParallelProgressContract checks that concurrent workers preserve the
// progress-callback contract: one callback per variant, with a monotonically
// increasing done count ending at the total.
func TestParallelProgressContract(t *testing.T) {
	c := charFor(t, uarch.Skylake)
	only := sampleNames(c, 80)
	seen := make(map[string]int)
	lastDone := 0
	_, err := c.CharacterizeAll(Options{
		Only:        only,
		Workers:     4,
		SkipLatency: true,
		Progress: func(done, total int, name string) {
			// Serialized by the scheduler, so plain variables are safe here.
			if done != lastDone+1 {
				t.Errorf("done jumped from %d to %d", lastDone, done)
			}
			lastDone = done
			if total != len(only) {
				t.Errorf("total = %d, want %d", total, len(only))
			}
			seen[name]++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if lastDone != len(only) {
		t.Errorf("final done = %d, want %d", lastDone, len(only))
	}
	for name, n := range seen {
		if n != 1 {
			t.Errorf("variant %s reported %d times", name, n)
		}
	}
	if len(seen) != len(only) {
		t.Errorf("progress reported %d distinct variants, want %d", len(seen), len(only))
	}
}

// TestNegativeWorkersUsesDefault exercises the Workers < 0 path (one worker
// per CPU) on a small sample.
func TestNegativeWorkersUsesDefault(t *testing.T) {
	c := charFor(t, uarch.Nehalem)
	only := sampleNames(c, 150)
	res, err := c.CharacterizeAll(Options{Only: only, Workers: -1, SkipLatency: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != len(only) {
		t.Errorf("got %d results, want %d", len(res.Results), len(only))
	}
}

// TestCharacterizeResume checks the partial-results entry point: a run
// resumed from a subset of cached records measures only the missing variants
// and merges to a result identical to a cold run, for sequential and sharded
// scheduling.
func TestCharacterizeResume(t *testing.T) {
	c := charFor(t, uarch.Skylake)
	only := []string{"ADD_R64_R64", "IMUL_R64_R64", "PXOR_XMM_XMM", "MOV_R64_M64", "SHLD_R64_R64_I8"}
	want, err := c.CharacterizeAll(Options{Only: only, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	partial := map[string]*InstrResult{
		"ADD_R64_R64":  want.Results["ADD_R64_R64"],
		"PXOR_XMM_XMM": want.Results["PXOR_XMM_XMM"],
		// An entry outside the selection must be ignored, not merged in.
		"XOR_R64_R64": {Name: "XOR_R64_R64", Mnemonic: "XOR"},
	}
	for _, workers := range []int{1, 4} {
		var measured []string
		got, err := c.CharacterizeResume(Options{
			Only:    only,
			Workers: workers,
			Progress: func(done, total int, name string) {
				if total != len(only)-2 {
					t.Errorf("workers=%d: progress total = %d, want the %d missing variants", workers, total, len(only)-2)
				}
				measured = append(measured, name)
			},
		}, partial)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got.Results) != len(only) {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(got.Results), len(only))
		}
		if got.Results["XOR_R64_R64"] != nil {
			t.Errorf("workers=%d: out-of-selection partial entry leaked into the result", workers)
		}
		if len(measured) != len(only)-2 {
			t.Errorf("workers=%d: measured %d variants (%v), want %d", workers, len(measured), measured, len(only)-2)
		}
		for _, name := range measured {
			if partial[name] != nil {
				t.Errorf("workers=%d: cached variant %s was re-measured", workers, name)
			}
		}
		for _, name := range only {
			if !reflect.DeepEqual(got.Results[name], want.Results[name]) {
				t.Errorf("workers=%d: %s differs from the cold run:\ngot  %+v\nwant %+v",
					workers, name, got.Results[name], want.Results[name])
			}
		}
	}

	// Resuming with full coverage measures nothing.
	full := map[string]*InstrResult{}
	for _, name := range only {
		full[name] = want.Results[name]
	}
	got, err := c.CharacterizeResume(Options{Only: only, Workers: 4, Progress: func(done, total int, name string) {
		t.Errorf("fully covered resume measured %s", name)
	}}, full)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Results, want.Results) {
		t.Error("fully covered resume does not reproduce the cold result")
	}
}

// opaqueRunner wraps a Machine without exposing a fork path, to test the
// sequential fallback of the parallel scheduler.
type opaqueRunner struct{ *pipesim.Machine }

func TestParallelFallsBackToSequentialForUnforkableRunner(t *testing.T) {
	arch := uarch.Get(uarch.Skylake)
	c := New(measure.New(opaqueRunner{pipesim.New(arch)}))
	names := []string{"ADD_R64_R64", "IMUL_R64_R64", "PXOR_XMM_XMM"}
	res, err := c.CharacterizeAll(Options{Only: names, Workers: 4, SkipLatency: true})
	if err != nil {
		t.Fatalf("Workers>1 with an unforkable runner should fall back to sequential, got %v", err)
	}
	if len(res.Results) != len(names) {
		t.Errorf("got %d results, want %d", len(res.Results), len(names))
	}
	for _, name := range names {
		if res.Results[name] == nil || res.Results[name].Skipped != "" {
			t.Errorf("%s not characterized: %+v", name, res.Results[name])
		}
	}
}
