// Command uopsinfo characterizes the latency, throughput and port usage of
// the instruction variants of one (or all) simulated Intel Core
// microarchitecture generations and writes the results to a machine-readable
// XML file, mirroring the output of the paper's tool (Section 6.4).
//
// Usage:
//
//	uopsinfo [-arch "Skylake"] [-out results.xml] [-sample 20] [-only ADD_R64_R64,IMUL_R64_R64] [-quick] [-backends] [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [engine flags]
//
// The engine flags (-j, -cache, -store-*, -backend, -fleet) are shared by
// every command; see engine.RegisterFlags. Architectures are characterized
// concurrently and, within each architecture, blocking-instruction discovery
// and the instruction variants are sharded across per-worker runner/harness
// stacks; the -j budget is split between the two levels. -backends lists the
// registered measurement backends and exits. The output XML is
// byte-identical regardless of -j and of cache state: results are merged
// deterministically and sorted before writing.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"runtime/pprof"

	"uopsinfo/internal/engine"
	"uopsinfo/internal/iaca"
	"uopsinfo/internal/measure"
	"uopsinfo/internal/uarch"
	"uopsinfo/internal/xmlout"
)

// errUsage signals that the flag package already printed the diagnostic and
// usage text, so main only needs to set the exit status.
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	log.SetPrefix("uopsinfo: ")
	if err := run(os.Args[1:], os.Stdout, log.Default()); err != nil {
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// config holds the parsed command-line options.
type config struct {
	archName string
	out      string
	sample   int
	only     string
	quick    bool
	verbose  bool
	backends bool
	cpuprof  string
	memprof  string
}

// run parses the arguments and executes the characterization pipeline. It is
// separated from main so the end-to-end tests can drive the full pipeline
// without spawning a process.
func run(args []string, stdout io.Writer, logger *log.Logger) error {
	var cfg config
	fs := flag.NewFlagSet("uopsinfo", flag.ContinueOnError)
	fs.StringVar(&cfg.archName, "arch", "Skylake", `microarchitecture to characterize (e.g. "Skylake", "Sandy Bridge" or "sandy-bridge"; case and separators are ignored) or "all"`)
	fs.StringVar(&cfg.out, "out", "results.xml", "output XML file")
	fs.IntVar(&cfg.sample, "sample", 25, "characterize every n-th instruction variant (1 = all, slower)")
	fs.StringVar(&cfg.only, "only", "", "comma-separated list of variant names to characterize (overrides -sample)")
	fs.BoolVar(&cfg.quick, "quick", false, "skip the per-operand-pair latency measurements")
	fs.BoolVar(&cfg.verbose, "v", false, "print progress")
	ef := engine.RegisterFlags(fs, false)
	fs.BoolVar(&cfg.backends, "backends", false, "list the registered measurement backends and exit")
	fs.StringVar(&cfg.cpuprof, "cpuprofile", "", "write a CPU profile of the characterization to this file")
	fs.StringVar(&cfg.memprof, "memprofile", "", "write a heap profile (after characterization) to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if cfg.backends {
		for _, name := range measure.Names() {
			b, _ := measure.Lookup(name)
			fmt.Fprintf(stdout, "%s\tversion %s\n", name, b.Version())
		}
		return nil
	}

	var archs []*uarch.Arch
	if cfg.archName == "all" {
		archs = uarch.All()
	} else {
		a, err := uarch.ByName(cfg.archName)
		if err != nil {
			return err
		}
		archs = []*uarch.Arch{a}
	}

	ecfg, err := ef.Config()
	if err != nil {
		return err
	}
	if cfg.verbose {
		ecfg.BlockingProgress = func(gen uarch.Generation, done, total int, name string) {
			if done%50 == 0 || done == total {
				logger.Printf("%s: blocking discovery %d/%d (%s)", gen, done, total, name)
			}
		}
		ecfg.Log = logger.Printf
	}
	eng, err := engine.New(ecfg)
	if err != nil {
		return err
	}

	// The CPU profile brackets the whole characterization (including the XML
	// write); the heap profile is taken once at the end, after a GC, so it
	// shows what the pipeline retains rather than transient garbage.
	if cfg.cpuprof != "" {
		f, err := os.Create(cfg.cpuprof)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("start CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	// The worker budget is split between the architecture level and the
	// per-variant level, so -j bounds the total parallelism. Results are
	// stored by architecture index, so the document layout does not depend
	// on completion order (xmlout.Write additionally sorts by name).
	results := make([]xmlout.Architecture, len(archs))
	err = engine.Fanout(eng.Workers(), len(archs), func(i, workers int) (err error) {
		results[i], err = characterizeArch(eng, archs[i], cfg, workers, logger)
		return err
	})
	if err != nil {
		return err
	}

	if cfg.verbose {
		st := eng.Stats()
		logger.Printf("backend %s version %s: %d runs served from the store, %d variant hits, %d variants measured, %d blocking hits, %d save errors",
			eng.Backend().Name(), eng.Backend().Version(),
			st.ResultHits, st.VariantHits, st.VariantsMeasured, st.BlockingHits, st.SaveErrors)
	}

	doc := &xmlout.Document{Architectures: results}
	f, err := os.Create(cfg.out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := xmlout.Write(f, doc); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", cfg.out)

	if cfg.memprof != "" {
		mf, err := os.Create(cfg.memprof)
		if err != nil {
			return err
		}
		defer mf.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(mf); err != nil {
			return fmt.Errorf("write heap profile: %w", err)
		}
	}
	return nil
}

// characterizeArch runs the characterization of one generation through the
// engine with the given per-variant worker count and converts the result to
// the XML document model.
func characterizeArch(eng *engine.Engine, arch *uarch.Arch, cfg config, workers int, logger *log.Logger) (xmlout.Architecture, error) {
	start := time.Now()
	opts := engine.RunOptions{SkipLatency: cfg.quick, Workers: workers}
	if cfg.only != "" {
		opts.Only = strings.Split(cfg.only, ",")
	} else if cfg.sample > 1 {
		instrs := arch.InstrSet().Instrs()
		for i := 0; i < len(instrs); i += cfg.sample {
			opts.Only = append(opts.Only, instrs[i].Name)
		}
	}
	if cfg.verbose {
		opts.Progress = func(done, total int, name string) {
			if done%50 == 0 || done == total {
				logger.Printf("%s: %d/%d (%s)", arch.Name(), done, total, name)
			}
		}
	}
	res, err := eng.CharacterizeArch(arch.Gen(), opts)
	if err != nil {
		return xmlout.Architecture{}, err
	}
	var analyzers []*iaca.Analyzer
	for _, v := range iaca.SupportedVersions(arch.Gen()) {
		a, err := iaca.New(v, arch)
		if err != nil {
			return xmlout.Architecture{}, err
		}
		analyzers = append(analyzers, a)
	}
	logger.Printf("%s: characterized %d variants in %v (%d workers)",
		arch.Name(), len(res.Results), time.Since(start).Round(time.Millisecond), workers)
	return xmlout.FromArchResult(res, analyzers), nil
}
