package core

import (
	"fmt"
	"runtime"
	"testing"

	"uopsinfo/internal/measure"
	"uopsinfo/internal/pipesim"
	"uopsinfo/internal/uarch"
)

// equalBlockingSets compares two blocking sets structurally (combination
// keys, selected instruction, ports, throughput), reporting differences via
// t.Errorf.
func equalBlockingSets(t *testing.T, label string, got, want *BlockingSet) {
	t.Helper()
	compare := func(kind string, got, want map[uarch.PortSet]BlockingInstr) {
		if len(got) != len(want) {
			t.Errorf("%s: %s has %d combinations, want %d", label, kind, len(got), len(want))
		}
		for key, w := range want {
			g, ok := got[key]
			if !ok {
				t.Errorf("%s: %s is missing combination p%s", label, kind, key)
				continue
			}
			if g.Instr.Name != w.Instr.Name {
				t.Errorf("%s: %s p%s selected %s, want %s", label, kind, key, g.Instr.Name, w.Instr.Name)
			}
			if g.Ports != w.Ports {
				t.Errorf("%s: %s p%s ports %s, want %s", label, kind, key, g.Ports, w.Ports)
			}
			if g.Throughput != w.Throughput || g.UopsOnCombo != w.UopsOnCombo {
				t.Errorf("%s: %s p%s throughput/uops %v/%v, want %v/%v",
					label, kind, key, g.Throughput, g.UopsOnCombo, w.Throughput, w.UopsOnCombo)
			}
		}
	}
	compare("SSE", got.SSE, want.SSE)
	compare("AVX", got.AVX, want.AVX)
}

// TestBlockingDiscoveryWorkerInvariance is the determinism guarantee of the
// sharded blocking discovery: the discovered set must be identical to a
// sequential discovery for any worker count (1, 4, NumCPU).
func TestBlockingDiscoveryWorkerInvariance(t *testing.T) {
	arch := uarch.Get(uarch.Skylake)
	want, err := NewForArch(arch).DiscoverBlocking(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	workers := []int{4}
	if n := runtime.NumCPU(); n != 4 {
		workers = append(workers, n)
	}
	for _, w := range workers {
		got, err := NewForArch(arch).DiscoverBlocking(Options{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		equalBlockingSets(t, fmt.Sprintf("workers=%d", w), got, want)
	}
}

// TestBlockingProgressContract checks the BlockingProgress callback under
// concurrent discovery: one callback per candidate, the done count
// monotonically increasing and ending at the total.
func TestBlockingProgressContract(t *testing.T) {
	c := NewForArch(uarch.Get(uarch.Nehalem))
	lastDone, total := 0, 0
	seen := make(map[string]int)
	_, err := c.DiscoverBlocking(Options{
		Workers: 4,
		BlockingProgress: func(done, tot int, name string) {
			// Serialized by the discovery, so plain variables are safe here.
			if done != lastDone+1 {
				t.Errorf("done jumped from %d to %d", lastDone, done)
			}
			lastDone, total = done, tot
			seen[name]++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if lastDone == 0 || lastDone != total {
		t.Errorf("final done = %d, total = %d; want equal and positive", lastDone, total)
	}
	for name, n := range seen {
		if n != 1 {
			t.Errorf("candidate %s reported %d times", name, n)
		}
	}
}

// TestBlockingDiscoveryFallsBackForUnforkableRunner checks that parallel
// discovery on an unforkable runner silently degrades to the sequential path.
func TestBlockingDiscoveryFallsBackForUnforkableRunner(t *testing.T) {
	arch := uarch.Get(uarch.Skylake)
	c := New(measure.New(opaqueRunner{pipesim.New(arch)}))
	bs, err := c.DiscoverBlocking(Options{Workers: 4})
	if err != nil {
		t.Fatalf("discovery with an unforkable runner should fall back to sequential, got %v", err)
	}
	if len(bs.SSE) == 0 || len(bs.AVX) == 0 {
		t.Errorf("fallback discovery found no blocking instructions: %d SSE, %d AVX", len(bs.SSE), len(bs.AVX))
	}
}
