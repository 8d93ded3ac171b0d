package lp

import (
	"testing"

	"uopsinfo/internal/uarch"
)

// Benchmarks comparing the two solvers for the throughput-from-port-usage
// problem (an ablation of the design choice discussed in DESIGN.md: the
// combinatorial solver is exact and much faster for the small port counts of
// real CPUs, the simplex solver handles the general LP formulation).

var benchGroups = []PortGroup{
	{Ports: uarch.NewPortSet(0, 1, 5, 6), Count: 2},
	{Ports: uarch.NewPortSet(0, 6), Count: 1},
	{Ports: uarch.NewPortSet(5), Count: 2},
	{Ports: uarch.NewPortSet(2, 3), Count: 1},
	{Ports: uarch.NewPortSet(2, 3, 7), Count: 1},
	{Ports: uarch.NewPortSet(4), Count: 1},
	{Ports: uarch.NewPortSet(0, 1), Count: 3},
}

func BenchmarkMinMaxLoadCombinatorial(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MinMaxLoad(benchGroups, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinMaxLoadSimplex(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MinMaxLoadLP(benchGroups, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSchedule(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Schedule(benchGroups, 8); err != nil {
			b.Fatal(err)
		}
	}
}
