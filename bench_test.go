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
	"uopsinfo/internal/pipesim"
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
// the scheduler shards across worker stacks. serial-after-haswell runs the
// serial Skylake sample on a reading table that Haswell's sample filled
// first, untimed, as an engine's table is when it characterized Haswell
// before Skylake: its simulated/op counts what Skylake does not share with
// Haswell.
func BenchmarkCharacterizeAll(b *testing.B) {
	sample := func(arch *uarch.Arch) (only []string, bs *core.BlockingSet) {
		instrs := arch.InstrSet().Instrs()
		for i := 0; i < len(instrs); i += 30 {
			only = append(only, instrs[i].Name)
		}
		bs, err := core.NewForArch(arch).Blocking()
		if err != nil {
			b.Fatal(err)
		}
		return only, bs
	}
	// stack returns a fresh stack of arch with the discovered blocking set.
	stack := func(arch *uarch.Arch, bs *core.BlockingSet) (*core.Characterizer, *pipesim.Machine) {
		c := core.NewForArch(arch)
		c.SetBlocking(bs)
		return c, c.Harness().Runner().(*pipesim.Machine)
	}
	arch, hsw := uarch.Get(uarch.Skylake), uarch.Get(uarch.Haswell)
	only, bs := sample(arch)
	hswOnly, hswBS := sample(hsw)
	bench := func(workers int, afterHaswell bool) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			var simulated, recalled int
			for i := 0; i < b.N; i++ {
				// Each iteration starts from a fresh stack with the
				// discovered blocking set, as a fresh engine's run
				// does: a reading table, fork pool and chain latencies
				// left warm by the last iteration would recall what
				// the rung is meant to simulate.
				b.StopTimer()
				c, m := stack(arch, bs)
				if afterHaswell {
					table := pipesim.NewTable()
					fill, fm := stack(hsw, hswBS)
					fm.SetTable(table)
					if _, err := fill.CharacterizeAll(core.Options{Only: hswOnly, Workers: 1}); err != nil {
						b.Fatal(err)
					}
					m.SetTable(table)
				}
				b.StartTimer()
				res, err := c.CharacterizeAll(core.Options{Only: only, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Results) != len(only) {
					b.Fatalf("got %d results, want %d", len(res.Results), len(only))
				}
				// The serial run reads only on the stack's own Machine.
				sim, rec := m.Readings()
				simulated += sim
				recalled += rec
			}
			b.ReportMetric(float64(len(only)), "variants")
			if workers == 1 {
				b.ReportMetric(float64(simulated)/float64(b.N), "simulated/op")
				b.ReportMetric(float64(recalled)/float64(b.N), "recalled/op")
			}
		}
	}
	b.Run("serial", bench(1, false))
	b.Run("serial-after-haswell", bench(1, true))
	workers := []int{2, 4}
	if n := runtime.NumCPU(); n > 4 {
		workers = append(workers, n)
	}
	for _, w := range workers {
		b.Run(fmt.Sprintf("parallel-%d", w), bench(w, false))
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
// cold store (full blocking discovery and characterization, then persist),
// a warm one (both served from the store's files by a fresh engine, as a
// CLI run sees it), and repeated on one engine (served from the records the
// engine kept of its first warm run, as a long-running uopsd sees it),
// tracking the speedup the cache buys across runs.
func BenchmarkCharacterizeCache(b *testing.B) {
	arch := uarch.Get(uarch.Skylake)
	instrs := arch.InstrSet().Instrs()
	var only []string
	for i := 0; i < len(instrs); i += 50 {
		only = append(only, instrs[i].Name)
	}
	open := func(b *testing.B, dir string) *engine.Engine {
		eng, err := engine.New(engine.Config{Workers: 4, CacheDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		return eng
	}
	query := func(b *testing.B, eng *engine.Engine) {
		res, err := eng.CharacterizeArch(uarch.Skylake, engine.RunOptions{Only: only})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Results) != len(only) {
			b.Fatalf("got %d results, want %d", len(res.Results), len(only))
		}
	}
	run := func(b *testing.B, dir string) { query(b, open(b, dir)) }
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
	b.Run("repeat", func(b *testing.B) {
		b.ReportAllocs()
		dir := b.TempDir()
		run(b, dir) // prime the store
		eng := open(b, dir)
		query(b, eng) // the first warm run reads the files
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			query(b, eng)
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
	// The round trips behind the wire overhead: sequences measured and the
	// /v1/measure batches that carried them, per characterization.
	fleetStats := func() measure.FleetStats {
		s, _ := backend.(measure.FleetReporter).FleetStats()
		return s
	}
	b.Run("fleet-2", func(b *testing.B) {
		before := fleetStats()
		bench(fleet)(b)
		after := fleetStats()
		b.ReportMetric(float64(after.Sequences-before.Sequences)/float64(b.N), "seqs/op")
		b.ReportMetric(float64(after.Batches-before.Batches)/float64(b.N), "batches/op")
	})
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
