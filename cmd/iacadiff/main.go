// Command iacadiff compares the hardware (simulator) measurements against
// the IACA models for one generation (Section 7.2 of the paper): it prints
// the agreement statistics for µop counts and port usage and the named
// discrepancy examples.
//
// Usage:
//
//	iacadiff [-arch Skylake] [-sample 20] [engine flags]
//
// The engine flags (-j, -cache, -store-*, -backend, -fleet) are shared by
// every command; see engine.RegisterFlags. With a -j budget above 1 the
// characterizers for the chosen generation and for the generations of the
// named discrepancy examples are prewarmed concurrently by the
// characterization engine.
package main

import (
	"flag"
	"fmt"
	"log"

	"uopsinfo/internal/engine"
	"uopsinfo/internal/iaca"
	"uopsinfo/internal/report"
	"uopsinfo/internal/uarch"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("iacadiff: ")

	archName := flag.String("arch", "Skylake", `microarchitecture generation (case and separators ignored, e.g. "sandy-bridge")`)
	sample := flag.Int("sample", 20, "compare every n-th eligible instruction variant (1 = all)")
	ef := engine.RegisterFlags(flag.CommandLine, false)
	flag.Parse()

	ecfg, err := ef.Config()
	if err != nil {
		log.Fatal(err)
	}
	eng, err := engine.New(ecfg)
	if err != nil {
		log.Fatal(err)
	}

	arch, err := uarch.ByName(*archName)
	if err != nil {
		log.Fatal(err)
	}
	versions := iaca.SupportedVersions(arch.Gen())
	if len(versions) == 0 {
		log.Fatalf("%s is not supported by any IACA version (as in the paper)", arch.Name())
	}
	fmt.Printf("IACA versions supporting %s: %s\n\n", arch.Name(), iaca.DescribeVersions(arch.Gen()))

	ctx := report.NewContextWith(eng)
	if eng.Workers() > 1 {
		// The discrepancy study below always measures on Skylake, Haswell
		// and Nehalem; warm those together with the chosen generation.
		gens := []uarch.Generation{arch.Gen(), uarch.Skylake, uarch.Haswell, uarch.Nehalem}
		if err := ctx.Prewarm(gens); err != nil {
			log.Fatal(err)
		}
	}

	row, err := report.BuildTable1Row(arch, report.Table1Options{SampleEvery: *sample, Context: ctx})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(report.FormatTable1([]report.Table1Row{row}))

	fmt.Println("\nNamed discrepancies (Section 7.2):")
	cs, err := report.IACADiscrepancyStudy(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(cs.Format())
}
