// Command analyze is the performance-prediction front end mentioned in the
// paper's conclusion ("a performance-prediction tool similar to Intel's IACA
// supporting all Intel Core microarchitectures"): it reads an Intel-syntax
// loop kernel, runs it as a loop body on the cycle-level simulator of the
// chosen generation, and — where an IACA version supports the generation —
// prints the IACA model's prediction next to it.
//
// Usage:
//
//	analyze -arch Skylake kernel.asm
//	echo 'ADD RAX, RBX' | analyze -arch Haswell
//
// The measurement stack is built by the characterization engine, so analyze
// takes the engine flags (-j, -cache, -store-*, -backend, -fleet) shared by
// every command; see engine.RegisterFlags. -backend or -fleet selects which
// execution substrate runs the kernel. A kernel analysis is a single direct
// measurement, which the store does not cache, so -j and the store flags
// only configure the engine.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"uopsinfo/internal/asmgen"
	"uopsinfo/internal/engine"
	"uopsinfo/internal/iaca"
	"uopsinfo/internal/uarch"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("analyze: ")

	archName := flag.String("arch", "Skylake", `microarchitecture generation (case and separators ignored, e.g. "sandy-bridge"); an unknown name is an error listing the known ones`)
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

	var text []byte
	if flag.NArg() > 0 {
		text, err = os.ReadFile(flag.Arg(0))
	} else {
		text, err = io.ReadAll(os.Stdin)
	}
	if err != nil {
		log.Fatal(err)
	}

	seq, err := asmgen.ParseSequence(arch.InstrSet(), string(text))
	if err != nil {
		log.Fatal(err)
	}
	if len(seq) == 0 {
		log.Fatal("no instructions to analyze")
	}

	fmt.Printf("Analyzing %d instructions as a loop body on %s\n\n", len(seq), arch.Name())
	for _, inst := range seq {
		perf := arch.Perf(inst.Variant)
		fmt.Printf("  %-32s %d µops  %s\n", inst.String(), perf.NumUops(),
			uarch.FormatPortUsage(perf.PortUsage()))
	}

	h, err := eng.Harness(arch.Gen())
	if err != nil {
		log.Fatal(err)
	}
	res, err := h.Measure(seq)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSimulated execution (steady state, dependencies respected):\n")
	fmt.Printf("  cycles per iteration: %.2f\n", res.Cycles)
	fmt.Printf("  µops per iteration:   %.2f (%.2f handled at rename)\n", res.IssuedUops, res.ElimUops)
	fmt.Printf("  port pressure:       ")
	for p, u := range res.PortUops {
		fmt.Printf(" p%d=%.2f", p, u)
	}
	fmt.Println()

	for _, v := range iaca.SupportedVersions(arch.Gen()) {
		a, err := iaca.New(v, arch)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := a.Analyze(seq)
		if err != nil {
			log.Printf("IACA %s: %v", v, err)
			continue
		}
		fmt.Printf("\nIACA %s model (dependencies through flags and memory ignored):\n", v)
		fmt.Printf("  block throughput: %.2f cycles per iteration, %d µops\n", rep.BlockThroughput, rep.TotalUops)
		if rep.HasLatency {
			fmt.Printf("  latency estimate: %.0f cycles\n", rep.Latency)
		}
	}
}
