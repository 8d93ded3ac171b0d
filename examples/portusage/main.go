// Port-usage example: shows why the blocking-instruction algorithm
// (Algorithm 1 of the paper) infers port usage that an isolation-based
// measurement cannot: MOVQ2DQ on Skylake, ADC on Haswell and PBLENDVB on
// Nehalem are measured with both approaches and compared against the
// simulator's ground truth and the IACA models.
//
// Run with:
//
//	go run ./examples/portusage
package main

import (
	"fmt"
	"log"

	"uopsinfo/internal/core"
	"uopsinfo/internal/fog"
	"uopsinfo/internal/iaca"
	"uopsinfo/internal/measure"
	"uopsinfo/internal/pipesim"
	"uopsinfo/internal/uarch"
)

func main() {
	log.SetFlags(0)

	cases := []struct {
		gen  uarch.Generation
		name string
	}{
		{uarch.Skylake, "MOVQ2DQ_XMM_MM"},
		{uarch.Haswell, "ADC_R64_R64"},
		{uarch.Nehalem, "PBLENDVB_XMM_XMM"},
	}

	for _, tc := range cases {
		arch := uarch.Get(tc.gen)
		in := arch.InstrSet().Lookup(tc.name)
		if in == nil {
			log.Fatalf("%s not available on %s", tc.name, arch.Name())
		}

		char := core.NewForArch(arch)
		baseline := fog.New(measure.New(pipesim.New(arch)))

		inferred, err := char.PortUsage(in, 2)
		if err != nil {
			log.Fatal(err)
		}
		iso, err := baseline.PortUsageIsolation(in)
		if err != nil {
			log.Fatal(err)
		}
		truth := core.GroundTruthUsage(arch.Perf(in))

		fmt.Printf("%s on %s\n", tc.name, arch.Name())
		fmt.Printf("  ground truth:                  %s\n", truth)
		fmt.Printf("  blocking-instruction algorithm: %s\n", inferred)
		fmt.Printf("  isolation-based attribution:    %s\n", iso)
		for _, v := range iaca.SupportedVersions(tc.gen) {
			a, err := iaca.New(v, arch)
			if err != nil {
				log.Fatal(err)
			}
			if e, ok := a.Entry(tc.name); ok {
				fmt.Printf("  IACA %-3s:                       %s\n", v, e.UsageString())
			}
		}
		fmt.Println()
	}
}
