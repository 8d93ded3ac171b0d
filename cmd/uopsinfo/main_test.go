package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"uopsinfo/internal/engine"
	"uopsinfo/internal/measure/remote"
	"uopsinfo/internal/service"
	"uopsinfo/internal/xmlout"
)

// runPipeline drives the full command pipeline (flag parsing,
// characterization, XML writing) in-process and returns the bytes of the
// written results file.
func runPipeline(t *testing.T, args ...string) []byte {
	t.Helper()
	out := filepath.Join(t.TempDir(), "results.xml")
	var stdout bytes.Buffer
	logger := log.New(io.Discard, "", 0)
	if err := run(append(args, "-out", out), &stdout, logger); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	if got, want := stdout.String(), "wrote "+out+"\n"; got != want {
		t.Errorf("stdout = %q, want %q", got, want)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestEndToEndSmoke characterizes a small -only set, re-parses the written
// XML and checks the variant counts and a known latency value (IMUL's
// 3-cycle latency on Skylake).
func TestEndToEndSmoke(t *testing.T) {
	only := "ADD_R64_R64,IMUL_R64_R64,PXOR_XMM_XMM,MOV_R64_M64"
	data := runPipeline(t, "-arch", "Skylake", "-only", only, "-j", "4")

	doc, err := xmlout.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Architectures) != 1 || doc.Architectures[0].Name != "Skylake" {
		t.Fatalf("got architectures %+v, want exactly Skylake", doc.Architectures)
	}
	arch := &doc.Architectures[0]
	if len(arch.Instructions) != 4 {
		t.Fatalf("got %d instructions, want 4", len(arch.Instructions))
	}
	imul := arch.Lookup("IMUL_R64_R64")
	if imul == nil || imul.Measured == nil {
		t.Fatal("no measurement for IMUL_R64_R64")
	}
	found := false
	for _, l := range imul.Measured.Latencies {
		if l.Source == "op1" && l.Dest == "op1" && !l.SameReg {
			found = true
			if l.Cycles < 2.5 || l.Cycles > 3.5 {
				t.Errorf("IMUL_R64_R64 op1->op1 latency = %.2f, want 3", l.Cycles)
			}
		}
	}
	if !found {
		t.Errorf("IMUL_R64_R64 has no op1->op1 latency entry: %+v", imul.Measured.Latencies)
	}
	if add := arch.Lookup("ADD_R64_R64"); add == nil || add.Measured == nil || add.Skipped != "" {
		t.Errorf("ADD_R64_R64 not fully characterized: %+v", add)
	}
}

// TestOutputByteIdenticalAcrossWorkerCounts is the command-level determinism
// guarantee: -j N must produce byte-identical XML to -j 1. The variant set
// deliberately includes a divider-based instruction (DIV_R64), whose
// measurement switches the simulator's operand-value regime mid-run, and
// memory operands, whose addresses come from the per-worker arena.
func TestOutputByteIdenticalAcrossWorkerCounts(t *testing.T) {
	only := "ADD_R64_R64,IMUL_R64_R64,PXOR_XMM_XMM,MOV_R64_M64,MOV_M64_R64,DIV_R64,LEA_R64_M64,SHLD_R64_R64_I8"
	base := runPipeline(t, "-arch", "Skylake", "-only", only, "-j", "1")
	for _, j := range []string{"2", "5"} {
		got := runPipeline(t, "-arch", "Skylake", "-only", only, "-j", j)
		if !bytes.Equal(got, base) {
			t.Errorf("-j %s output differs from -j 1 (%d vs %d bytes)", j, len(got), len(base))
		}
	}
}

// TestCacheColdWarmByteIdentical is the command-level cache guarantee: a
// warm-cache run must produce byte-identical XML to the cold run that filled
// the store, for any worker count, and corrupting the store must silently
// fall back to recomputation with — again — identical output.
func TestCacheColdWarmByteIdentical(t *testing.T) {
	cache := t.TempDir()
	only := "ADD_R64_R64,IMUL_R64_R64,PXOR_XMM_XMM,MOV_R64_M64,DIV_R64"
	cold := runPipeline(t, "-arch", "Skylake", "-only", only, "-j", "4", "-cache", cache)

	entries, err := os.ReadDir(cache)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("cold run left the cache directory empty")
	}

	for _, j := range []string{"1", "4"} {
		warm := runPipeline(t, "-arch", "Skylake", "-only", only, "-j", j, "-cache", cache)
		if !bytes.Equal(warm, cold) {
			t.Errorf("warm-cache -j %s output differs from the cold run (%d vs %d bytes)", j, len(warm), len(cold))
		}
	}

	for _, ent := range entries {
		if err := os.WriteFile(filepath.Join(cache, ent.Name()), []byte("corrupt"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	recomputed := runPipeline(t, "-arch", "Skylake", "-only", only, "-j", "4", "-cache", cache)
	if !bytes.Equal(recomputed, cold) {
		t.Error("recomputed-after-corruption output differs from the cold run")
	}

	// A cacheless run must agree with everything above.
	plain := runPipeline(t, "-arch", "Skylake", "-only", only, "-j", "4")
	if !bytes.Equal(plain, cold) {
		t.Error("cached output differs from a cacheless run")
	}
}

// TestCacheIncrementalEviction is the command-level incremental-cache
// guarantee (mixed warm/cold): the cache holds one blocking entry and one
// file per variant, and after evicting a strict subset of the per-variant
// files, a warm run — which re-measures only the evicted variants and serves
// the rest from the store — must emit XML byte-identical to the cold run,
// for worker counts 1, 4 and NumCPU.
func TestCacheIncrementalEviction(t *testing.T) {
	cache := t.TempDir()
	only := "ADD_R64_R64,IMUL_R64_R64,PXOR_XMM_XMM,MOV_R64_M64,DIV_R64"
	cold := runPipeline(t, "-arch", "Skylake", "-only", only, "-j", "4", "-cache", cache)

	requireLayout := func() {
		t.Helper()
		entries, err := os.ReadDir(cache)
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[string]int{}
		for _, ent := range entries {
			kind, _, _ := strings.Cut(ent.Name(), "-")
			kinds[kind]++
		}
		if want := map[string]int{"blocking": 1, "variant": 5}; !reflect.DeepEqual(kinds, want) {
			t.Errorf("cache holds %v entries by kind, want %v", kinds, want)
		}
	}
	requireLayout()

	evict := func(prefix string, max int) int {
		t.Helper()
		entries, err := os.ReadDir(cache)
		if err != nil {
			t.Fatal(err)
		}
		removed := 0
		for _, ent := range entries {
			if !strings.HasPrefix(ent.Name(), prefix+"-") || removed == max {
				continue
			}
			if err := os.Remove(filepath.Join(cache, ent.Name())); err != nil {
				t.Fatal(err)
			}
			removed++
		}
		return removed
	}

	for _, j := range []int{1, 4, runtime.NumCPU()} {
		// Each iteration starts from the fully warm store the previous run
		// left behind and evicts two variants.
		if n := evict("variant", 2); n != 2 {
			t.Fatalf("evicted %d per-variant entries, want 2", n)
		}
		warm := runPipeline(t, "-arch", "Skylake", "-only", only, "-j", fmt.Sprint(j), "-cache", cache)
		if !bytes.Equal(warm, cold) {
			t.Errorf("-j %d: incrementally warmed output differs from the cold run (%d vs %d bytes)",
				j, len(warm), len(cold))
		}
		requireLayout()
	}
}

// TestBackendsFlag checks uopsinfo -backends lists the default pipesim
// backend with a version fingerprint, and that an unknown -backend fails
// with an error naming the registered backends.
func TestBackendsFlag(t *testing.T) {
	var stdout bytes.Buffer
	if err := run([]string{"-backends"}, &stdout, log.New(io.Discard, "", 0)); err != nil {
		t.Fatal(err)
	}
	listed := false
	for _, line := range strings.Split(stdout.String(), "\n") {
		if strings.HasPrefix(line, "pipesim\t") && strings.Contains(line, "version") {
			listed = true
		}
	}
	if !listed {
		t.Errorf("-backends output does not list pipesim with a version:\n%s", stdout.String())
	}

	err := run([]string{"-backend", "no-such-substrate", "-only", "ADD_R64_R64"},
		io.Discard, log.New(io.Discard, "", 0))
	if err == nil || !strings.Contains(err.Error(), "pipesim") {
		t.Errorf("unknown -backend error = %v, want one listing the registered backends", err)
	}
}

// TestExplicitBackendFlagMatchesDefault checks -backend pipesim is the same
// substrate as the default.
func TestExplicitBackendFlagMatchesDefault(t *testing.T) {
	only := "ADD_R64_R64,IMUL_R64_R64"
	base := runPipeline(t, "-arch", "Skylake", "-only", only, "-j", "2")
	explicit := runPipeline(t, "-arch", "Skylake", "-only", only, "-j", "2", "-backend", "pipesim")
	if !bytes.Equal(base, explicit) {
		t.Error("-backend pipesim output differs from the default backend")
	}
}

// TestFleetFlagMatchesLocal drives the CLI through a loopback measurement
// fleet: -fleet pointing at two in-process uopsd workers must produce XML
// byte-identical to a local run. The variant set includes a divider-based
// instruction (DIV_R64), whose operand-value regime must travel with every
// sequence over the wire, and memory variants, whose virtual addresses must
// survive the encoding.
func TestFleetFlagMatchesLocal(t *testing.T) {
	only := "ADD_R64_R64,IMUL_R64_R64,DIV_R64,MOV_R64_M64,MOV_M64_R64,SHLD_R64_R64_I8"
	local := runPipeline(t, "-arch", "Skylake", "-only", only, "-j", "2")

	urls := make([]string, 2)
	for i := range urls {
		eng, err := engine.New(engine.Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		svc, err := service.New(service.Config{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(svc)
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	t.Cleanup(remote.Shutdown)
	fleet := runPipeline(t, "-arch", "Skylake", "-only", only, "-j", "2",
		"-fleet", strings.Join(urls, ","))
	if !bytes.Equal(local, fleet) {
		t.Errorf("-fleet output differs from the local run (%d vs %d bytes)", len(fleet), len(local))
	}

	// Naming a fleet while forcing a different backend is a configuration
	// error, not a silent override.
	err := run([]string{"-fleet", urls[0], "-backend", "pipesim", "-only", "ADD_R64_R64"},
		io.Discard, log.New(io.Discard, "", 0))
	if err == nil || !strings.Contains(err.Error(), "contradicts") {
		t.Errorf("-fleet with -backend pipesim: %v", err)
	}
}
