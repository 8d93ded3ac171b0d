// Command casestudies regenerates the case studies of Sections 5.1, 5.3.2,
// 7.2 and 7.3 of the paper: the motivating port-usage examples, the
// LP-computed throughput, the IACA discrepancies, the AESDEC and SHLD
// latencies, the MOVQ2DQ/MOVDQ2Q port usage, the multi-latency instructions
// and the dependency-breaking idioms.
//
// Usage:
//
//	casestudies [-id 7.3.1] [engine flags]
//
// The engine flags (-j, -cache, -store-*, -backend, -fleet) are shared by
// every command; see engine.RegisterFlags. With a -j budget above 1 the
// per-generation characterizers (whose blocking-instruction discovery
// dominates the runtime) are built concurrently by the characterization
// engine. Every stack is built through the engine, which rejects unknown
// generations and backends with an error instead of panicking.
package main

import (
	"flag"
	"fmt"
	"log"

	"uopsinfo/internal/engine"
	"uopsinfo/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("casestudies: ")

	id := flag.String("id", "", `run only the case study with this identifier (e.g. "7.3.1"); default: all`)
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
	ctx := report.NewContextWith(eng)
	if eng.Workers() > 1 {
		// All studies are built regardless of -id (the filter applies to the
		// output), so warm every generation they measure on up front.
		if err := ctx.Prewarm(report.CaseStudyGenerations()); err != nil {
			log.Fatal(err)
		}
	}
	studies, err := report.AllCaseStudies(ctx)
	if err != nil {
		log.Fatal(err)
	}
	printed := 0
	for _, cs := range studies {
		if *id != "" && cs.ID != *id {
			continue
		}
		fmt.Println(cs.Format())
		printed++
	}
	if printed == 0 {
		log.Fatalf("no case study with id %q", *id)
	}
}
