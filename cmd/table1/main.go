// Command table1 regenerates Table 1 of the paper: the number of instruction
// variants per microarchitecture generation and the agreement between the
// hardware (simulator) measurements and the IACA models for µop counts and
// port usage.
//
// Usage:
//
//	table1 [-sample 20] [-arch "Skylake"] [-v] [engine flags]
//
// The engine flags (-j, -cache, -store-*, -backend, -fleet) are shared by
// every command; see engine.RegisterFlags. With a -j budget above 1 the
// generations are compared concurrently on stacks built by the
// characterization engine.
package main

import (
	"flag"
	"fmt"
	"log"

	"uopsinfo/internal/engine"
	"uopsinfo/internal/report"
	"uopsinfo/internal/uarch"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("table1: ")

	sample := flag.Int("sample", 20, "compare every n-th eligible instruction variant (1 = all, slower)")
	archName := flag.String("arch", "", `restrict to one generation (default: all nine; case and separators ignored, e.g. "sandy-bridge")`)
	verbose := flag.Bool("v", false, "print progress")
	ef := engine.RegisterFlags(flag.CommandLine, false)
	flag.Parse()

	ecfg, err := ef.Config()
	if err != nil {
		log.Fatal(err)
	}
	if *verbose {
		ecfg.Log = log.Printf
	}
	eng, err := engine.New(ecfg)
	if err != nil {
		log.Fatal(err)
	}
	opts := report.Table1Options{
		SampleEvery: *sample,
		Context:     report.NewContextWith(eng),
		Workers:     eng.Workers(),
	}
	if *archName != "" {
		a, err := uarch.ByName(*archName)
		if err != nil {
			log.Fatal(err)
		}
		opts.Generations = []uarch.Generation{a.Gen()}
	}
	if *verbose {
		opts.Progress = func(arch string) { log.Printf("characterizing %s ...", arch) }
	}
	rows, err := report.BuildTable1(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(report.FormatTable1(rows))
	fmt.Printf("\n(every %d-th eligible variant compared; run with -sample 1 for the full comparison)\n", *sample)
}
