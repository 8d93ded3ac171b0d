package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"uopsinfo/internal/analysis"
	"uopsinfo/internal/analysis/uopslint"
)

var update = flag.Bool("update", false, "re-record testdata/golden.json from the working tree")

// smokeStride keeps the smoke runs small: every 64th variant.
const smokeStride = 64

// smoke runs one workload at smoke scale in this process and returns its
// exit code, contract line and full report.
func smoke(t *testing.T, workload string, trace int, golden goldenSet) (int, result, report) {
	t.Helper()
	dir := t.TempDir()
	path, spans := filepath.Join(dir, "report.json"), filepath.Join(dir, "spans.json")
	o, err := parseFlags([]string{"--workload", workload, "--seed", "3", "--seconds", "1",
		"--trace", strconv.Itoa(trace), "-sample", strconv.Itoa(smokeStride), "-report", path, "-spans", spans}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	code := runWorkload(o, golden, &stdout, os.Stderr)
	if code != 0 {
		return code, result{}, report{}
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last output line is not the result: %v", workload, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if trace == 1 {
		data, err := os.ReadFile(spans)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct{ Spans []span }
		if err := json.Unmarshal(data, &doc); err != nil || len(doc.Spans) == 0 {
			t.Errorf("%s: spans file: %v, %d spans", workload, err, len(doc.Spans))
		}
	}
	return code, res, rep
}

func benchmarkJSON(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func metricNames(ms map[string]metricValue) []string { return sortedKeys(ms) }

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is out of date; regenerate it with -manifest:\n%s", want)
	}
}

// TestSmoke runs every workload untraced and traced at smoke scale: every
// check passes, the printed metric names are BENCHMARK.json's, no
// end-to-end metric reads 0, and the exact counts of two traced runs agree.
func TestSmoke(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	m := benchmarkJSON(t)
	var e2eNames, layerNames []string
	for _, x := range m.EndToEnd {
		e2eNames = append(e2eNames, x.Name)
	}
	for _, x := range m.PerLayer {
		layerNames = append(layerNames, x.Name)
	}
	e2eNames, layerNames = sortedNames(e2eNames), sortedNames(layerNames)
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			code, res, _ := smoke(t, w, 0, golden)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("untraced: exit %d, %+v", code, res)
			}
			if got := metricNames(res.Metrics); !reflect.DeepEqual(got, e2eNames) {
				t.Errorf("end-to-end metrics %v, BENCHMARK.json has %v", got, e2eNames)
			}
			for name, v := range res.Metrics {
				if v.Value <= 0 || v.Unit != unitOf(name) {
					t.Errorf("%s = %v %s", name, v.Value, v.Unit)
				}
			}
			var traced [2]report
			for i := range traced {
				code, res, rep := smoke(t, w, 1, golden)
				if code != 0 || !res.Correct || res.Failed != 0 {
					t.Fatalf("traced: exit %d, %+v", code, res)
				}
				if got := metricNames(res.Metrics); !reflect.DeepEqual(got, layerNames) {
					t.Errorf("per-layer metrics %v, BENCHMARK.json has %v", got, layerNames)
				}
				traced[i] = rep
			}
			if traced[0].PerLayer["pipesim.run_calls"] == 0 {
				t.Errorf("the replay made no Run calls")
			}
			for _, name := range exactMetrics {
				if a, b := traced[0].PerLayer[name], traced[1].PerLayer[name]; a != b {
					t.Errorf("%s differs between traced runs: %v vs %v", name, a, b)
				}
			}
		})
	}
}

// TestCorruptedGoldenIsAFailure: a wrong golden digest is a failed check in
// a completed run, not a crash.
func TestCorruptedGoldenIsAFailure(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	bad := goldenSet{}
	for stride, gens := range golden {
		bad[stride] = map[string]string{}
		for gen, d := range gens {
			bad[stride][gen] = d
		}
	}
	bad[strconv.Itoa(smokeStride)]["Haswell"] = strings.Repeat("0", 64)
	code, res, _ := smoke(t, "isa-cold", 0, bad)
	if code != 0 || res.Correct || res.Failed == 0 || res.Failed == res.Attempted {
		t.Errorf("exit %d, %+v; want a completed run with the Haswell check failed", code, res)
	}
}

// TestGoldenDigests checks the smoke-scale digests, and with -update
// re-records both scales (the full one takes a full-ISA characterization).
func TestGoldenDigests(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	strides := []int{smokeStride}
	if *update {
		strides = []int{1, smokeStride}
		golden = goldenSet{}
	}
	for _, stride := range strides {
		got, err := isaDigests(stride)
		if err != nil {
			t.Fatal(err)
		}
		if *update {
			golden[strconv.Itoa(stride)] = got
		} else if want := golden[strconv.Itoa(stride)]; !reflect.DeepEqual(got, want) {
			t.Errorf("stride %d: digests %v, golden %v", stride, got, want)
		}
	}
	if *update {
		if err := writeJSON("testdata/golden.json", golden); err != nil {
			t.Fatal(err)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

// TestGaugeLeavesItsThreadOut: while the gauge runs rounds, an idle process
// uses next to no CPU time by env.cpuTime, though the gauge's own thread
// keeps busy.
func TestGaugeLeavesItsThreadOut(t *testing.T) {
	g := startGauge()
	e := &env{gauge: g}
	c0, g0 := e.cpuTime(), threadCPUTime(g.tid)
	time.Sleep(4 * refEvery)
	idle, gauged := e.cpuTime()-c0, threadCPUTime(g.tid)-g0
	g.close()
	mean, rounds := g.meanRound(0)
	if rounds < 4 || mean <= 0 || g.scale(0) <= 0 {
		t.Fatalf("%d rounds of %v, scale %v", rounds, mean, g.scale(0))
	}
	if gauged < 2*mean || idle > gauged/4 {
		t.Errorf("over %v: the gauge thread used %v, the rest of the process %v", 4*refEvery, gauged, idle)
	}
}

// TestRepoClean runs the repository's uopslint suite on this package.
func TestRepoClean(t *testing.T) {
	pkgs, err := analysis.Load(".", ".")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := analysis.Check(pkgs, uopslint.Suite(), uopslint.Names())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
