package store

// The store's rungs of the benchmark trajectory (`make bench-json`): one
// per-variant save, with and without the fsyncs, and one per-variant load.
// A cold run pays a save per measured variant; a warm run the engine does
// not yet hold in memory pays a load per cached variant.

import (
	"fmt"
	"testing"

	"uopsinfo/internal/core"
	"uopsinfo/internal/uarch"
)

// benchRecord returns a realistic per-variant record, shaped like
// ADC_R64_M64 as the characterization measures it on Skylake: two µops on
// two port combinations, six operand-pair latencies and both throughput
// definitions, about 1.2 KB on disk.
func benchRecord(name string) *core.InstrResult {
	pair := func(src, dst int, srcName, dstName string, cycles float64, notes string) core.OperandPairLatency {
		return core.OperandPairLatency{Source: src, Dest: dst, SourceName: srcName, DestName: dstName, Cycles: cycles, Notes: notes}
	}
	return &core.InstrResult{
		Name:       name,
		Mnemonic:   "ADC",
		Uops:       2,
		UopsIssued: 2,
		Ports:      core.PortUsage{uarch.NewPortSet(0, 6): 1, uarch.NewPortSet(2, 3): 1},
		Latency: core.LatencyResult{Pairs: []core.OperandPairLatency{
			pair(0, 0, "op1", "op1", 1, "self chain"),
			pair(0, 2, "op1", "FLAGS", 1, "SETcc chain"),
			pair(1, 0, "op2", "op1", 5, "double-XOR address chain"),
			pair(1, 2, "op2", "FLAGS", 0, "not measured: memory-to-flags chains are not supported"),
			pair(2, 0, "FLAGS", "op1", 1, "TEST chain"),
			pair(2, 2, "FLAGS", "FLAGS", 1, "self chain"),
		}},
		Throughput: core.ThroughputResult{Measured: 1, MeasuredSequenceLength: 1, WithDepBreaking: 0.75, Computed: 0.5},
	}
}

// benchNames returns n distinct variant names.
func benchNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("ADC_R64_M64_%06d", i)
	}
	return names
}

// BenchmarkSaveVariant times one per-variant save. Every iteration saves a
// variant the store has not seen, as a cold run does, so each save creates
// a file. rename is the one-shot commands' default (temp file + rename);
// durable adds the entry fsync and the directory sync of uopsd's default.
func BenchmarkSaveVariant(b *testing.B) {
	for _, mode := range []struct {
		name       string
		durability Durability
	}{{"rename", DurabilityRename}, {"durable", DurabilityFull}} {
		b.Run(mode.name, func(b *testing.B) {
			s, err := OpenOptions(b.TempDir(), Options{Durability: mode.durability})
			if err != nil {
				b.Fatal(err)
			}
			dig := testKey("variant skipLatency=false").Digest()
			names := benchNames(b.N)
			rec := benchRecord("")
			b.ReportAllocs()
			b.ResetTimer()
			for _, name := range names {
				rec.Name = name
				if err := s.SaveVariant(dig, name, rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLoadVariants times one per-variant load through LoadVariants,
// the engine's read path: read, decode and name-check one file of a
// 1 024-variant digest. The files stay in the page cache, as a warm
// store's do.
func BenchmarkLoadVariants(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	dig := testKey("variant skipLatency=false").Digest()
	names := benchNames(1024)
	for _, name := range names {
		if err := s.SaveVariant(dig, name, benchRecord(name)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(names)
		if len(s.LoadVariants(dig, names[j:j+1])) != 1 {
			b.Fatalf("variant %s missed", names[j])
		}
	}
}
