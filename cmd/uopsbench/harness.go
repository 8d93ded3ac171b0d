package main

// The repeatability harness: every workload runs in a child process of its
// own, K times with seeds seed..seed+K-1, in alternating workload order;
// each metric is summarized by its median and quartiles.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

func orchestrate(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "uopsbench:", err)
		return 1
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(stderr, "uopsbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "reports-")
	if err != nil {
		fmt.Fprintln(stderr, "uopsbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	var plain, traced []report
	bad := false
	for r := 0; r < o.runs; r++ {
		order := workloadNames()
		if r%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, name := range order {
			for trace := 0; trace <= o.trace; trace++ {
				rep, err := child(exe, o, name, o.seed+int64(r), trace, dir, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "uopsbench: %s seed %d: %v\n", name, o.seed+int64(r), err)
					bad = true
					continue
				}
				bad = bad || rep.Failed > 0 || rep.Attempted == 0
				if trace == 0 {
					plain = append(plain, rep)
				} else {
					traced = append(traced, rep)
				}
			}
		}
	}

	summarize(stdout, plain, traced)
	if o.json {
		line, err := json.Marshal(struct {
			Reports []report `json:"reports"`
			Traced  []report `json:"traced,omitempty"`
		}{plain, traced})
		if err != nil {
			fmt.Fprintln(stderr, "uopsbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if bad {
		return 1
	}
	return 0
}

// child runs one workload in a child process and reads its report. The
// child's own output goes to stderr, as progress.
func child(exe string, o options, name string, seed int64, trace int, dir string, stderr io.Writer) (report, error) {
	path := filepath.Join(dir, fmt.Sprintf("%s-%d-%d.json", name, seed, trace))
	args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-sample", strconv.Itoa(o.stride),
		"-trace", strconv.Itoa(trace), "-report", path}
	if trace == 1 && o.spans != "" {
		args = append(args, "-spans", spansPath(o.spans, name))
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = stderr, stderr
	if err := cmd.Run(); err != nil {
		return report{}, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return report{}, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return report{}, fmt.Errorf("reading %s: %w", path, err)
	}
	return rep, nil
}

// summarize prints, per workload, each end-to-end metric's median,
// quartiles and spread (quartile distance over median); with traced runs,
// the per-layer medians and the tracing overhead.
func summarize(w io.Writer, plain, traced []report) {
	for _, name := range workloadNames() {
		runs := byWorkload(plain, name)
		if len(runs) == 0 {
			continue
		}
		attempted, failed := 0, 0
		for _, r := range runs {
			attempted += r.Attempted
			failed += r.Failed
		}
		fmt.Fprintf(w, "\n%s: %d runs, %d operations checked, %d failed\n", name, len(runs), attempted, failed)
		fmt.Fprintf(w, "  %-24s %14s %14s %14s %8s  %s\n", "metric", "median", "q1", "q3", "spread", "unit")
		for _, m := range summaryMetrics() {
			xs := values(runs, m.get)
			q1, q3 := quartiles(xs)
			med := median(xs)
			fmt.Fprintf(w, "  %-24s %14.4f %14.4f %14.4f %7.2f%%  %s\n", m.name, med, q1, q3, 100*ratio(q3-q1, med), m.unit)
		}
		truns := byWorkload(traced, name)
		if len(truns) == 0 {
			continue
		}
		fmt.Fprintf(w, "  tracing overhead (traced median minus untraced median):\n")
		for _, m := range summaryMetrics() {
			base, tr := median(values(runs, m.get)), median(values(truns, m.get))
			fmt.Fprintf(w, "    %-22s %+14.4f %s (%+.1f%%)\n", m.name, tr-base, m.unit, 100*ratio(tr-base, base))
		}
		fmt.Fprintf(w, "  per layer (median of %d traced runs):\n", len(truns))
		for _, m := range perLayer {
			v := median(values(truns, func(r report) float64 { return r.PerLayer[m.Name] }))
			fmt.Fprintf(w, "    %-34s %16.4f %s\n", m.Name, v, m.Unit)
		}
	}
}

// summaryMetric is a metric the summary tabulates, with how to read it from
// a report.
type summaryMetric struct {
	name, unit string
	get        func(report) float64
}

// summaryMetrics lists the end-to-end metrics, then the ungated ones.
func summaryMetrics() []summaryMetric {
	var out []summaryMetric
	for _, m := range endToEnd {
		out = append(out, summaryMetric{m.Name, m.Unit, func(r report) float64 { return r.EndToEnd[m.Name] }})
	}
	for _, m := range ungated {
		out = append(out, summaryMetric{m.Name, m.Unit, func(r report) float64 { return r.Ungated[m.Name] }})
	}
	return out
}

func byWorkload(reps []report, name string) []report {
	var out []report
	for _, r := range reps {
		if r.Workload == name {
			out = append(out, r)
		}
	}
	return out
}

func values(reps []report, f func(report) float64) []float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return xs
}
