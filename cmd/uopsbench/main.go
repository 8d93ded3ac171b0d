// Command uopsbench is the repository's end-to-end benchmark. It drives the
// program only through its public entry points — engine.New and
// CharacterizeArch, service.New behind a real loopback HTTP server,
// remote.Configure, and xmlout — on three workloads, checks every operation's
// output, and prints every end-to-end metric by name with its unit.
//
// Usage (from the repository root):
//
//	bash cmd/uopsbench/run.sh --workload W --seed N --seconds S --trace 0|1
//	bash cmd/uopsbench/run.sh -seed N [-runs K] [-trace 1] [-spans FILE] [-json]
//	bash cmd/uopsbench/run.sh -manifest > BENCHMARK.json
//
// With -workload it runs that one workload in this process and prints, as
// its last line, one JSON object with the keys correct, attempted, failed
// and metrics (the end-to-end metrics, or with -trace 1 the per-layer
// ones). Without -workload it runs every workload, each in a child process
// of its own (the remote backend is process-global, and one process per
// workload keeps max_rss_mb honest); -runs K repeats that K times in
// alternating workload order and prints each metric's median and quartiles;
// -trace 1 adds a traced run per workload, prints the per-layer table and
// the tracing overhead (traced minus untraced end-to-end numbers).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	spans    string
	runs     int
	json     bool
	stride   int
	report   string
	manifest bool
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("uopsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run only this workload, in this process ("+strings.Join(workloadNames(), ", ")+")")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "how long each run measures")
	fs.IntVar(&o.trace, "trace", 0, "1: take per-layer numbers through the tracing seams")
	fs.StringVar(&o.spans, "spans", "", "with -trace 1, write the recorded spans as JSON to this file")
	fs.IntVar(&o.runs, "runs", 1, "without -workload: run every workload this many times, seeds seed..seed+runs-1")
	fs.BoolVar(&o.json, "json", false, "without -workload: also print all reports as one JSON line")
	fs.IntVar(&o.stride, "sample", 1, "characterize every n-th variant (1 is the benchmark; larger values are for smoke tests)")
	fs.StringVar(&o.report, "report", "", "with -workload: also write the full report as JSON to this file")
	fs.BoolVar(&o.manifest, "manifest", false, "print BENCHMARK.json as defined by this command and exit")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, not %d", o.trace)
	}
	if o.seconds <= 0 || o.runs < 1 || o.stride < 1 {
		return o, errors.New("-seconds, -runs and -sample must be positive")
	}
	if o.workload != "" {
		if _, ok := workloadByName(o.workload); !ok {
			return o, fmt.Errorf("unknown workload %q (known: %s)", o.workload, strings.Join(workloadNames(), ", "))
		}
	}
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "uopsbench:", err)
		}
		return 2
	}
	if o.manifest {
		data, err := manifestJSON()
		if err != nil {
			fmt.Fprintln(stderr, "uopsbench:", err)
			return 1
		}
		stdout.Write(data)
		return 0
	}
	golden, err := loadGolden()
	if err != nil {
		fmt.Fprintln(stderr, "uopsbench:", err)
		return 1
	}
	if o.workload != "" {
		return runWorkload(o, golden, stdout, stderr)
	}
	return orchestrate(o, stdout, stderr)
}

// A workload is one set of generated inputs and the loop that drives them.
type workload struct {
	name string
	why  string
	run  func(*env) (*outcome, error)
}

var workloads = []workload{
	{"isa-cold", "full ISA of all 9 generations on fresh engines: pipesim, measure and core do the work; store, HTTP and fleet are bypassed", runISACold},
	{"serve-open", "open-loop HTTP traffic at a fixed rate against uopsd's service over a durable store: store reads and writes, rendering, HTTP", runServeOpen},
	{"fleet-loopback", "every 3rd Skylake variant measured through the remote backend on 2 loopback workers: only encode, HTTP and decode differ from local", runFleet},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// engineWorkers is the worker budget of every engine the workloads drive
// (fleet workers excepted): fixed, so a workload does the same work on any
// machine.
const engineWorkers = 2

// Each workload sets itself up at least setupRepeats times, and more while
// its set-ups together have taken less than setupMinimum, up to
// setupMaximum times; setup_s is the median. A quick set-up is repeated
// more, so that its median is not one short, noisy reading.
const (
	setupRepeats = 3
	setupMaximum = 15
	setupMinimum = 1500 * time.Millisecond
)

// env is what a workload runs with.
type env struct {
	seed   int64
	window time.Duration // how long the measured phase lasts
	stride int           // characterize every stride-th variant
	dir    string        // scratch directory for stores, inside the checkout
	tr     *tracer       // nil with tracing off
	gauge  *gauge        // the host gauge, while the workload runs
	golden goldenSet
	log    io.Writer
}

func (e *env) logf(format string, args ...interface{}) {
	fmt.Fprintf(e.log, format+"\n", args...)
}

// backend picks the tracing backend in traced runs and the program's own
// otherwise.
func (e *env) backend(traced, plain string) string {
	if e.tr != nil {
		return traced
	}
	return plain
}

// outcome is what a workload run measured. Checks may come from several
// goroutines.
type outcome struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string

	e2e     map[string]float64
	ungated map[string]float64
	samples map[string]int // sample count behind a metric, where one applies
	layer   map[string]float64

	// setupScale converts the set-up's CPU time to the reference host
	// speed; measuredFrom is the gauge's mark when the set-up ended.
	setupScale   float64
	measuredFrom int
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, ungated: map[string]float64{}, samples: map[string]int{},
		layer: map[string]float64{}}
}

// check counts one checked operation, and a failure when ok is false.
func (o *outcome) check(ok bool, format string, args ...interface{}) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if !ok {
		o.failed++
		if len(o.failures) < 10 {
			o.failures = append(o.failures, fmt.Sprintf(format, args...))
		}
	}
}

// cpuPerOp sets cpu_ms_per_op from the CPU time the measured operations
// used.
func (o *outcome) cpuPerOp(cpu time.Duration, ops int) {
	o.ungated["cpu_ms_per_op"] = ratio(float64(cpu)/1e6, float64(ops))
	o.samples["cpu_ms_per_op"] = ops
	o.samples["norm_cpu_ms_per_op"] = ops
}

// throughput sets the wall-clock throughput from n operations over the
// given seconds.
func (o *outcome) throughput(n, seconds float64, samples int) {
	o.ungated["wall_ops_per_s"] = ratio(n, seconds)
	o.samples["wall_ops_per_s"] = samples
}

// latency sets the wall-clock latencies from per-operation samples in
// seconds.
func (o *outcome) latency(samples []float64) {
	o.ungated["wall_latency_p50_ms"] = 1e3 * percentile(samples, 0.50)
	o.ungated["wall_latency_p90_ms"] = 1e3 * percentile(samples, 0.90)
	o.samples["wall_latency_p50_ms"] = len(samples)
	o.samples["wall_latency_p90_ms"] = len(samples)
}

// normalize sets the end-to-end times: the CPU times the workload measured,
// each scaled to the reference host speed by the gauge's rounds of the same
// stretch of the run.
func (o *outcome) normalize(g *gauge) {
	o.e2e["setup_s"] = o.ungated["cpu_setup_s"] * o.setupScale
	o.e2e["norm_cpu_ms_per_op"] = o.ungated["cpu_ms_per_op"] * g.scale(o.measuredFrom)
	mean, n := g.meanRound(o.measuredFrom)
	o.ungated["ref_round_ms"] = float64(mean) / 1e6
	o.samples["ref_round_ms"] = n
}

// repeatSetup builds a workload's fixture as often as the set-up constants
// say, releasing all but the last, and returns the last. It sets
// cpu_setup_s to the median CPU time of the set-ups, and wall_setup_s to
// their median wall time.
func repeatSetup[T any](e *env, o *outcome, build func() (T, error), release func(T)) (T, error) {
	from := e.gauge.mark()
	defer func() { o.setupScale, o.measuredFrom = e.gauge.scale(from), e.gauge.mark() }()
	var last T
	var cpu, wall []float64
	start := time.Now()
	for i := 0; i < setupMaximum && (i < setupRepeats || time.Since(start) < setupMinimum); i++ {
		if i > 0 {
			release(last)
		}
		c0, t0 := e.cpuTime(), time.Now()
		v, err := build()
		if err != nil {
			var zero T
			return zero, err
		}
		wall = append(wall, time.Since(t0).Seconds())
		cpu = append(cpu, (e.cpuTime() - c0).Seconds())
		last = v
	}
	o.ungated["cpu_setup_s"] = median(cpu)
	o.ungated["wall_setup_s"] = median(wall)
	return last, nil
}

// report is everything one workload run measured.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     int                `json:"trace"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	Ungated   map[string]float64 `json:"ungated"`
	Samples   map[string]int     `json:"samples,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

// result is the contract line: the last line of a workload run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runWorkload(o options, golden goldenSet, stdout, stderr io.Writer) int {
	w, _ := workloadByName(o.workload)
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(stderr, "uopsbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(stderr, "uopsbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e := &env{
		seed:   o.seed,
		window: time.Duration(o.seconds * float64(time.Second)),
		stride: o.stride,
		dir:    dir,
		golden: golden,
		log:    stderr,
	}
	if o.trace == 1 {
		e.tr = newTracer()
	}
	g := startGauge()
	e.gauge = g
	out, err := w.run(e)
	g.close()
	e.gauge = nil
	if err != nil {
		fmt.Fprintf(stderr, "uopsbench: %s: %v\n", w.name, err)
		return 1
	}
	out.normalize(g)
	out.e2e["max_rss_mb"] = maxRSSMB()

	rep := report{Workload: w.name, Seed: o.seed, Trace: o.trace, Attempted: out.attempted, Failed: out.failed,
		Failures: out.failures, EndToEnd: out.e2e, Ungated: out.ungated, Samples: out.samples}
	if e.tr != nil {
		rep.PerLayer = out.layer
	}
	for _, f := range out.failures {
		fmt.Fprintf(stderr, "uopsbench: %s: FAILED: %s\n", w.name, f)
	}
	printReport(stdout, rep)

	if o.report != "" {
		if err := writeJSON(o.report, rep); err != nil {
			fmt.Fprintln(stderr, "uopsbench:", err)
			return 1
		}
	}
	if e.tr != nil && o.spans != "" {
		if err := e.tr.writeSpans(o.spans); err != nil {
			fmt.Fprintln(stderr, "uopsbench:", err)
			return 1
		}
	}

	res := result{Correct: out.failed == 0 && out.attempted > 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metricValue{}}
	if e.tr == nil {
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricValue{out.e2e[m.Name], m.Unit}
		}
	} else {
		for _, m := range perLayer {
			res.Metrics[m.Name] = metricValue{out.layer[m.Name], m.Unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "uopsbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// printReport prints every metric of a run by name with its unit.
func printReport(w io.Writer, r report) {
	mode := "end to end"
	if r.Trace == 1 {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s  seed %d  %s  attempted %d  failed %d\n", r.Workload, r.Seed, mode, r.Attempted, r.Failed)
	for _, m := range endToEnd {
		printMetric(w, m.Name, r.EndToEnd[m.Name], r.Samples[m.Name])
	}
	for _, m := range ungated {
		printMetric(w, m.Name, r.Ungated[m.Name], r.Samples[m.Name])
	}
	if r.Trace == 1 {
		for _, m := range perLayer {
			printMetric(w, m.Name, r.PerLayer[m.Name], 0)
		}
	}
}

func printMetric(w io.Writer, name string, v float64, n int) {
	line := fmt.Sprintf("  %-34s %14.4f %s", name, v, unitOf(name))
	if n > 0 {
		line += fmt.Sprintf("  (n=%d)", n)
	}
	fmt.Fprintln(w, line)
}

func writeJSON(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// spansPath derives a workload's span file from the -spans flag when one
// command runs several workloads: spans.json becomes spans.isa-cold.json.
func spansPath(path, workload string) string {
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + workload + ext
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
