// Throughput example: computes the throughput of instructions from their
// measured port usage by solving the min-max-load optimization problem of
// Section 5.3.2 (with both the combinatorial solver and the simplex-based LP
// solver) and compares it with the measured throughput of independent
// instruction sequences.
//
// Run with:
//
//	go run ./examples/throughputlp
package main

import (
	"fmt"
	"log"

	"uopsinfo/internal/core"
	"uopsinfo/internal/lp"
	"uopsinfo/internal/uarch"
)

func main() {
	log.SetFlags(0)

	arch := uarch.Get(uarch.Skylake)
	char := core.NewForArch(arch)

	names := []string{
		"ADD_R64_R64",       // 1 µop on 4 ports -> 0.25
		"IMUL_R64_R64",      // 1 µop on 1 port  -> 1.0
		"PSHUFD_XMM_XMM_I8", // 1 µop on port 5  -> 1.0
		"PADDD_XMM_XMM",     // 1 µop on 3 ports -> 0.33
		"MOVQ2DQ_XMM_MM",    // 1*p0 + 1*p015    -> 0.67
		"VHADDPD_XMM_XMM_XMM",
		"CMC", // measured throughput 1.0 (flag dependency), computed 0.25
	}

	fmt.Printf("%-22s %-18s %10s %10s %10s\n", "instruction", "ports", "measured", "min-max", "simplex")
	for _, name := range names {
		in := arch.InstrSet().Lookup(name)
		if in == nil {
			log.Fatalf("%s not available on %s", name, arch.Name())
		}
		pu, err := char.PortUsage(in, 0)
		if err != nil {
			log.Fatal(err)
		}
		tp, err := char.Throughput(in, pu)
		if err != nil {
			log.Fatal(err)
		}
		// Solve the same problem with both solvers, feeding the groups in
		// PortUsage.Keys order (the solvers are floating-point; input
		// order must not depend on map iteration).
		var groups []lp.PortGroup
		for _, combo := range pu.Keys() {
			groups = append(groups, lp.PortGroup{Ports: combo, Count: pu[combo]})
		}
		exact, err := lp.MinMaxLoad(groups, arch.NumPorts())
		if err != nil {
			log.Fatal(err)
		}
		simplex, err := lp.MinMaxLoadLP(groups, arch.NumPorts())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %-18s %10.2f %10.2f %10.2f\n", name, pu.String(), tp.Measured, exact, simplex)
	}
	fmt.Println("\nmeasured = Definition 2 (independent instructions); min-max/simplex = Definition 1 (from port usage)")
}
