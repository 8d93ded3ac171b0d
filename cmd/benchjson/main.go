// Command benchjson converts `go test -bench` text output into the
// repository's benchmark-trajectory JSON (BENCH_pipesim.json) and compares
// two benchmark runs.
//
// Usage:
//
//	go test -bench=. -benchmem ./... | benchjson -label pr5-after -o BENCH_pipesim.json
//	benchjson -compare old.txt new.txt
//
// In conversion mode, stdin is parsed and the results are merged into the
// output file under the given label: existing labels are preserved, so the
// file accumulates a trajectory of measurements (e.g. "pr5-before",
// "pr5-after") that future PRs extend and diff against. `-o -` writes the
// merged document to stdout without touching any file.
//
// In comparison mode, the two arguments are benchmark text files (as saved
// from `make bench > old.txt`); each benchmark present in both is printed
// with the median of its old and of its new ns/op samples and the speedup
// factor. With -fail-above=N the command additionally exits nonzero when any
// benchmark's new median exceeds its old one by more than N percent, which
// is what `make bench-guard` uses as a CI regression gate: a median over
// several rounds ignores a round that host noise slowed, which a mean
// passes on. benchstat, if installed, gives statistically
// sounder output; this mode is the zero-dependency fallback used by
// `make bench-compare`.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Entry is the recorded measurement for one benchmark.
type Entry struct {
	NsOp     float64            `json:"ns_op"`
	BOp      float64            `json:"b_op,omitempty"`
	AllocsOp float64            `json:"allocs_op,omitempty"`
	Extra    map[string]float64 `json:"extra,omitempty"`

	// ns holds every ns/op sample of the benchmark, for medianNs.
	ns []float64
}

// medianNs returns the median of the entry's ns/op samples, 0 if it has
// none.
func (e Entry) medianNs() float64 {
	if len(e.ns) == 0 {
		return 0
	}
	ns := append([]float64(nil), e.ns...)
	sort.Float64s(ns)
	mid := len(ns) / 2
	if len(ns)%2 == 1 {
		return ns[mid]
	}
	return (ns[mid-1] + ns[mid]) / 2
}

// Document is the schema of BENCH_pipesim.json: a free-form note plus one
// benchmark table per label.
type Document struct {
	Note   string                      `json:"note,omitempty"`
	Labels map[string]map[string]Entry `json:"labels"`
}

// benchLine matches one result line of `go test -bench` output, e.g.
//
//	BenchmarkRunIndependentALU-8   15381   79749 ns/op   76 B/op   1 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.*)$`)

// cpuSuffix is the "-<GOMAXPROCS>" that go test appends to benchmark names
// when GOMAXPROCS > 1. It cannot be stripped per-line: a sub-benchmark named
// "parallel-2" would collide with "parallel-4". stripCommonCPUSuffix removes
// it only when every parsed name carries the same trailing "-N" — a
// heuristic that misfires on a GOMAXPROCS=1 run filtered to benchmarks that
// all happen to end in the same "-N" sub-benchmark suffix; the -cpusuffix
// flag (keep/strip) overrides it for such runs.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

func stripCommonCPUSuffix(in map[string]Entry) map[string]Entry {
	common := ""
	for name := range in {
		s := cpuSuffix.FindString(name)
		if s == "" || (common != "" && s != common) {
			return in
		}
		common = s
	}
	if common == "" {
		return in
	}
	out := make(map[string]Entry, len(in))
	for name, e := range in {
		out[strings.TrimSuffix(name, common)] = e
	}
	return out
}

// parseBench reads benchmark text output and returns name → entry. A
// benchmark appearing on several lines (go test -count=N) is averaged over
// its samples, with the sample count recorded as the "samples" extra; the
// entry keeps every ns/op sample for medianNs.
func parseBench(r io.Reader, suffixMode string) (map[string]Entry, error) {
	out := make(map[string]Entry)
	samples := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		e := out[m[1]]
		fields := strings.Fields(m[2])
		// Metrics come in "<value> <unit>" pairs after the iteration count.
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				e.NsOp += v
				e.ns = append(e.ns, v)
			case "B/op":
				e.BOp += v
			case "allocs/op":
				e.AllocsOp += v
			default:
				if e.Extra == nil {
					e.Extra = make(map[string]float64)
				}
				e.Extra[unit] += v
			}
		}
		out[m[1]] = e
		samples[m[1]]++
	}
	for name, e := range out {
		if n := samples[name]; n > 1 {
			e.NsOp /= n
			e.BOp /= n
			e.AllocsOp /= n
			for unit, v := range e.Extra {
				e.Extra[unit] = v / n
			}
			if e.Extra == nil {
				e.Extra = make(map[string]float64)
			}
			e.Extra["samples"] = n
			out[name] = e
		}
	}
	switch suffixMode {
	case "keep":
	case "strip":
		stripped := make(map[string]Entry, len(out))
		for name, e := range out {
			stripped[cpuSuffix.ReplaceAllString(name, "")] = e
		}
		if len(stripped) == len(out) {
			out = stripped
		} // a collision means the trailing -N was not a cpu suffix: keep raw
	default: // auto
		out = stripCommonCPUSuffix(out)
	}
	return out, sc.Err()
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func convert(label, outPath, note, suffixMode string) error {
	parsed, err := parseBench(os.Stdin, suffixMode)
	if err != nil {
		return err
	}
	if len(parsed) == 0 {
		return fmt.Errorf("no benchmark results on stdin")
	}
	doc := Document{Labels: map[string]map[string]Entry{}}
	if outPath != "-" {
		switch data, err := os.ReadFile(outPath); {
		case err == nil:
			if err := json.Unmarshal(data, &doc); err != nil {
				return fmt.Errorf("existing %s is not benchjson output: %w", outPath, err)
			}
			if doc.Labels == nil {
				doc.Labels = map[string]map[string]Entry{}
			}
		case !os.IsNotExist(err):
			// A transient read failure must not wipe the accumulated
			// trajectory on the subsequent write.
			return err
		}
	}
	if note != "" {
		doc.Note = note
	}
	doc.Labels[label] = parsed
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outPath == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks under label %q to %s\n",
		len(parsed), label, outPath)
	return nil
}

// regression is one benchmark whose new median ns/op exceeds the
// -fail-above tolerance over its old median.
type regression struct {
	name    string
	oldNs   float64
	newNs   float64
	overPct float64
}

func compare(oldPath, newPath, suffixMode string, failAbove float64) error {
	readFile := func(path string) (map[string]Entry, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return parseBench(f, suffixMode)
	}
	oldB, err := readFile(oldPath)
	if err != nil {
		return err
	}
	newB, err := readFile(newPath)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "%-45s %14s %14s %9s %9s\n", "benchmark", "old med ns/op", "new med ns/op", "speedup", "allocs")
	var oldOnly, newOnly []string
	var regressions []regression
	for _, name := range sortedNames(oldB) {
		o := oldB[name]
		n, ok := newB[name]
		if !ok {
			oldOnly = append(oldOnly, name)
			continue
		}
		oldNs, newNs := o.medianNs(), n.medianNs()
		speedup := "-"
		if newNs > 0 {
			speedup = fmt.Sprintf("%.2fx", oldNs/newNs)
		}
		if failAbove >= 0 && oldNs > 0 {
			if over := (newNs/oldNs - 1) * 100; over > failAbove {
				regressions = append(regressions, regression{name: name, oldNs: oldNs, newNs: newNs, overPct: over})
			}
		}
		allocs := fmt.Sprintf("%.0f→%.0f", o.AllocsOp, n.AllocsOp)
		fmt.Fprintf(w, "%-45s %14.0f %14.0f %9s %9s\n", name, oldNs, newNs, speedup, allocs)
	}
	for _, name := range sortedNames(newB) {
		if _, ok := oldB[name]; !ok {
			newOnly = append(newOnly, name)
		}
	}
	// One-sided benchmarks (added, removed or renamed) must not vanish
	// silently from the comparison.
	for _, name := range oldOnly {
		fmt.Fprintf(w, "%-45s %14.0f %14s\n", name, oldB[name].medianNs(), "(only in old)")
	}
	for _, name := range newOnly {
		fmt.Fprintf(w, "%-45s %14s %14.0f\n", name, "(only in new)", newB[name].medianNs())
	}
	if len(regressions) > 0 {
		w.Flush()
		for _, r := range regressions {
			fmt.Fprintf(os.Stderr, "benchjson: REGRESSION %s: median %.0f -> %.0f ns/op (+%.1f%%, tolerance %.1f%%)\n",
				r.name, r.oldNs, r.newNs, r.overPct, failAbove)
		}
		return fmt.Errorf("%d benchmark(s) regressed beyond %.1f%%", len(regressions), failAbove)
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	label := flag.String("label", "current", "label to record this run under")
	out := flag.String("o", "BENCH_pipesim.json", `output JSON file ("-" for stdout, merged with existing labels otherwise)`)
	note := flag.String("note", "", "replace the document note")
	doCompare := flag.Bool("compare", false, "compare two benchmark text files instead of converting stdin")
	failAbove := flag.Float64("fail-above", -1,
		"with -compare: exit nonzero if any benchmark's new median ns/op regresses more than this percentage over its old median (negative disables)")
	suffixMode := flag.String("cpusuffix", "auto",
		`handling of the trailing "-GOMAXPROCS" in benchmark names: auto (strip when uniform), keep, strip`)
	flag.Parse()

	var err error
	if *doCompare {
		if flag.NArg() != 2 {
			log.Fatal("usage: benchjson -compare [-fail-above=N] OLD.txt NEW.txt")
		}
		err = compare(flag.Arg(0), flag.Arg(1), *suffixMode, *failAbove)
	} else {
		err = convert(*label, *out, *note, *suffixMode)
	}
	if err != nil {
		log.Fatal(err)
	}
}
