// Package benchmarks contains one benchmark per table and figure of the
// paper's evaluation (Section 7), as indexed in DESIGN.md: running
//
//	go test -bench=. -benchmem
//
// at the repository root regenerates Table 1 (sampled), the Section 7.2
// hardware-vs-IACA discrepancy analysis, and every Section 5/7.3 case study,
// and reports the headline numbers as benchmark metrics. EXPERIMENTS.md
// records the paper values next to the values measured here.
package benchmarks

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"uopsinfo/internal/core"
	"uopsinfo/internal/engine"
	"uopsinfo/internal/measure"
	"uopsinfo/internal/measure/remote"
	"uopsinfo/internal/report"
	"uopsinfo/internal/service"
	"uopsinfo/internal/uarch"
)

var (
	ctxOnce sync.Once
	ctx     *report.Context
)

// sharedContext returns the report context shared by all benchmarks (the
// characterizers it caches are expensive to build).
func sharedContext() *report.Context {
	ctxOnce.Do(func() { ctx = report.NewContext() })
	return ctx
}

// E1: Table 1 — instruction-variant counts and hardware-vs-IACA agreement.
// One benchmark per representative generation keeps the run time bounded;
// cmd/table1 regenerates the full table.
func benchmarkTable1(b *testing.B, gen uarch.Generation, sampleEvery int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		row, err := report.BuildTable1Row(uarch.Get(gen), report.Table1Options{SampleEvery: sampleEvery})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(row.NumVariants), "variants")
		b.ReportMetric(row.UopsMatchPct, "uops-match-%")
		b.ReportMetric(row.PortsMatchPct, "ports-match-%")
		b.Logf("Table 1 row: %+v", row)
	}
}

func BenchmarkTable1Nehalem(b *testing.B)  { benchmarkTable1(b, uarch.Nehalem, 40) }
func BenchmarkTable1Haswell(b *testing.B)  { benchmarkTable1(b, uarch.Haswell, 40) }
func BenchmarkTable1Skylake(b *testing.B)  { benchmarkTable1(b, uarch.Skylake, 40) }
func BenchmarkTable1KabyLake(b *testing.B) { benchmarkTable1(b, uarch.KabyLake, 40) }

// E2: Section 7.2 — named discrepancies between the hardware measurements
// and the IACA models (CMC, store/load, BSWAP, VHADDPD, VMINPS, SAHF, IMUL).
func BenchmarkIACADiscrepancies(b *testing.B) {
	c := sharedContext()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs, err := report.IACADiscrepancyStudy(c)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(cs.Rows)), "findings")
		b.Logf("\n%s", cs.Format())
	}
}

// E3: Section 7.3.1 — AESDEC per-operand-pair latencies across generations.
func BenchmarkCaseStudyAES(b *testing.B) {
	c := sharedContext()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs, err := report.AESLatencyStudy(c)
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", cs.Format())
	}
}

// E4: Section 7.3.2 — SHLD latencies and the prior-work measurement
// conventions that explain the published disagreements.
func BenchmarkCaseStudySHLD(b *testing.B) {
	c := sharedContext()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs, err := report.SHLDStudy(c)
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", cs.Format())
	}
}

// E5: Section 7.3.3 — MOVQ2DQ port usage on Skylake.
func BenchmarkCaseStudyMOVQ2DQ(b *testing.B) {
	c := sharedContext()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs, err := report.MOVQ2DQStudy(c)
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", cs.Format())
	}
}

// E6: Section 7.3.4 — MOVDQ2Q port usage on Haswell and Sandy Bridge.
func BenchmarkCaseStudyMOVDQ2Q(b *testing.B) {
	c := sharedContext()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs, err := report.MOVDQ2QStudy(c)
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", cs.Format())
	}
}

// E7: Section 7.3.5 — instructions with multiple (per-operand-pair)
// latencies.
func BenchmarkCaseStudyMultiLatency(b *testing.B) {
	c := sharedContext()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs, err := report.MultiLatencyStudy(c)
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", cs.Format())
	}
}

// E8: Section 7.3.6 — dependency-breaking idioms (PCMPGT family).
func BenchmarkCaseStudyZeroIdioms(b *testing.B) {
	c := sharedContext()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs, err := report.ZeroIdiomStudy(c)
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", cs.Format())
	}
}

// E9: Section 5.1 — the motivating port-usage examples (PBLENDVB on Nehalem,
// ADC on Haswell) comparing the blocking-instruction algorithm with the
// isolation-based prior-work attribution.
func BenchmarkPortUsageMotivation(b *testing.B) {
	c := sharedContext()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs, err := report.PortUsageMotivationStudy(c)
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", cs.Format())
	}
}

// E10: Section 5.3.2 — throughput computed from the port usage via the
// min-max-load problem vs the measured throughput.
func BenchmarkThroughputLP(b *testing.B) {
	c := sharedContext()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs, err := report.ThroughputLPStudy(c)
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", cs.Format())
	}
}

// E12: the sharded characterization scheduler — the same sampled Skylake
// variant set characterized serially and with N workers, tracking the
// speedup of the parallel engine. Blocking-instruction discovery is hoisted
// out of the timed region: it is shared serial work performed once per run,
// and the benchmark tracks the scaling of the per-variant measurements that
// the scheduler shards across worker stacks.
func BenchmarkCharacterizeAll(b *testing.B) {
	arch := uarch.Get(uarch.Skylake)
	instrs := arch.InstrSet().Instrs()
	var only []string
	for i := 0; i < len(instrs); i += 30 {
		only = append(only, instrs[i].Name)
	}
	proto := core.NewForArch(arch)
	if _, err := proto.Blocking(); err != nil {
		b.Fatal(err)
	}
	bench := func(workers int) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := proto.CharacterizeAll(core.Options{Only: only, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Results) != len(only) {
					b.Fatalf("got %d results, want %d", len(res.Results), len(only))
				}
			}
			b.ReportMetric(float64(len(only)), "variants")
		}
	}
	b.Run("serial", bench(1))
	workers := []int{2, 4}
	if n := runtime.NumCPU(); n > 4 {
		workers = append(workers, n)
	}
	for _, w := range workers {
		b.Run(fmt.Sprintf("parallel-%d", w), bench(w))
	}
}

// E13: sharded blocking-instruction discovery — the dominant sequential
// fraction of a full run after E12 parallelized the per-variant phase. The
// same Skylake discovery runs serially and with N workers; the discovered
// set is identical for any worker count (see
// TestBlockingDiscoveryWorkerInvariance), so this tracks pure scheduling
// speedup.
func BenchmarkBlockingDiscovery(b *testing.B) {
	c := core.NewForArch(uarch.Get(uarch.Skylake))
	bench := func(workers int) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bs, err := c.DiscoverBlocking(core.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if len(bs.SSE) == 0 || len(bs.AVX) == 0 {
					b.Fatalf("discovery found %d SSE / %d AVX combinations", len(bs.SSE), len(bs.AVX))
				}
			}
		}
	}
	b.Run("serial", bench(1))
	workers := []int{2, 4}
	if n := runtime.NumCPU(); n > 4 {
		workers = append(workers, n)
	}
	for _, w := range workers {
		b.Run(fmt.Sprintf("parallel-%d", w), bench(w))
	}
}

// E14: the persistent result store — the same sampled Skylake run against a
// cold store (full blocking discovery and characterization, then persist)
// and a warm one (both served from the store), tracking the cross-run
// speedup the cache buys the CLI tools.
func BenchmarkCharacterizeCache(b *testing.B) {
	arch := uarch.Get(uarch.Skylake)
	instrs := arch.InstrSet().Instrs()
	var only []string
	for i := 0; i < len(instrs); i += 50 {
		only = append(only, instrs[i].Name)
	}
	run := func(b *testing.B, dir string) {
		eng, err := engine.New(engine.Config{Workers: 4, CacheDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		res, err := eng.CharacterizeArch(uarch.Skylake, engine.RunOptions{Only: only})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Results) != len(only) {
			b.Fatalf("got %d results, want %d", len(res.Results), len(only))
		}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir := b.TempDir()
			b.StartTimer()
			run(b, dir)
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		dir := b.TempDir()
		run(b, dir) // prime the store
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b, dir)
		}
	})
	// incremental: two per-variant entries are evicted before every run, so
	// each iteration re-measures exactly two variants and serves the rest
	// from the per-variant tier.
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		dir := b.TempDir()
		run(b, dir) // prime the store
		evict := func() {
			entries, err := os.ReadDir(dir)
			if err != nil {
				b.Fatal(err)
			}
			variants := 0
			for _, ent := range entries {
				name := ent.Name()
				if !strings.HasPrefix(name, "variant-") || variants == 2 {
					continue
				}
				variants++
				if err := os.Remove(filepath.Join(dir, name)); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			evict()
			b.StartTimer()
			run(b, dir)
		}
	})
}

// E15: the distributed measurement fleet — the E12 sampled Skylake variant
// set characterized on the local simulator vs through a two-worker loopback
// fleet (in-process uopsd services measuring on their own simulators).
// Loopback workers add no compute the local run doesn't have, so the delta
// between the sub-benchmarks is exactly the fleet overhead: sequence
// encoding, HTTP dispatch, batching and result decoding. Blocking discovery
// is hoisted out of the timed region like in E12.
func BenchmarkCharacterizeRemote(b *testing.B) {
	arch := uarch.Get(uarch.Skylake)
	instrs := arch.InstrSet().Instrs()
	var only []string
	for i := 0; i < len(instrs); i += 30 {
		only = append(only, instrs[i].Name)
	}
	bench := func(proto *core.Characterizer) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := proto.CharacterizeAll(core.Options{Only: only, Workers: 4})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Results) != len(only) {
					b.Fatalf("got %d results, want %d", len(res.Results), len(only))
				}
			}
			b.ReportMetric(float64(len(only)), "variants")
		}
	}

	local := core.NewForArch(arch)
	if _, err := local.Blocking(); err != nil {
		b.Fatal(err)
	}
	b.Run("local", bench(local))

	urls := make([]string, 2)
	for i := range urls {
		eng, err := engine.New(engine.Config{Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		svc, err := service.New(service.Config{Engine: eng})
		if err != nil {
			b.Fatal(err)
		}
		srv := httptest.NewServer(svc)
		defer srv.Close()
		urls[i] = srv.URL
	}
	if err := remote.Configure(remote.Options{Workers: urls}); err != nil {
		b.Fatal(err)
	}
	defer remote.Shutdown()
	backend, ok := measure.Lookup(remote.BackendName)
	if !ok {
		b.Fatal("remote backend not registered")
	}
	runner, err := backend.NewRunner(uarch.Skylake)
	if err != nil {
		b.Fatal(err)
	}
	fleet := core.New(measure.New(runner))
	if _, err := fleet.Blocking(); err != nil {
		b.Fatal(err)
	}
	b.Run("fleet-2", bench(fleet))
}

// E11: Section 7.1 — a (sampled) full characterization run on Skylake,
// reporting coverage; the paper reports 50-110 minutes for the full run on
// real hardware.
func BenchmarkFullCharacterization(b *testing.B) {
	arch := uarch.Get(uarch.Skylake)
	instrs := arch.InstrSet().Instrs()
	var only []string
	for i := 0; i < len(instrs); i += 50 {
		only = append(only, instrs[i].Name)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := core.NewForArch(arch)
		res, err := c.CharacterizeAll(core.Options{Only: only})
		if err != nil {
			b.Fatal(err)
		}
		characterized := 0
		for _, r := range res.Results {
			if r.Skipped == "" {
				characterized++
			}
		}
		b.ReportMetric(float64(len(res.Results)), "variants")
		b.ReportMetric(float64(characterized), "fully-characterized")
	}
}
