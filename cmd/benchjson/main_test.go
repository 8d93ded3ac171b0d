package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: uopsinfo/internal/pipesim
BenchmarkRunIndependentALU   	   15381	     79749 ns/op	      76 B/op	       1 allocs/op
BenchmarkCharacterizeAll/serial         	       2	 118720127 ns/op	        69.00 variants	 2526828 B/op	   27068 allocs/op
PASS
ok  	uopsinfo/internal/pipesim	5.841s
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sample), "auto")
	if err != nil {
		t.Fatal(err)
	}
	alu, ok := got["BenchmarkRunIndependentALU"]
	if !ok {
		t.Fatalf("missing ALU benchmark; got %v", got)
	}
	if alu.NsOp != 79749 || alu.BOp != 76 || alu.AllocsOp != 1 {
		t.Errorf("ALU entry = %+v", alu)
	}
	all, ok := got["BenchmarkCharacterizeAll/serial"]
	if !ok {
		t.Fatalf("missing sub-benchmark; got %v", got)
	}
	if all.Extra["variants"] != 69 {
		t.Errorf("extra metric not captured: %+v", all)
	}
}

func TestParseBenchAveragesCountedSamples(t *testing.T) {
	// go test -count=3 emits every benchmark three times; the recorded
	// entry must be the mean, not the last sample.
	text := `BenchmarkFoo   10   100 ns/op   8 B/op   1 allocs/op
BenchmarkFoo   10   200 ns/op   8 B/op   1 allocs/op
BenchmarkFoo   10   300 ns/op   8 B/op   1 allocs/op
`
	got, err := parseBench(strings.NewReader(text), "auto")
	if err != nil {
		t.Fatal(err)
	}
	e := got["BenchmarkFoo"]
	if e.NsOp != 200 || e.BOp != 8 || e.AllocsOp != 1 {
		t.Errorf("averaged entry = %+v, want ns_op=200 b_op=8 allocs_op=1", e)
	}
	if e.Extra["samples"] != 3 {
		t.Errorf("sample count not recorded: %+v", e)
	}
}

func TestParseBenchCPUSuffix(t *testing.T) {
	// A uniform trailing "-8" is the GOMAXPROCS marker and is stripped.
	uniform := `BenchmarkFoo-8   10   100 ns/op
BenchmarkBar/parallel-2-8   10   200 ns/op
`
	got, err := parseBench(strings.NewReader(uniform), "auto")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got["BenchmarkFoo"]; !ok {
		t.Errorf("uniform cpu suffix not stripped: %v", got)
	}
	if _, ok := got["BenchmarkBar/parallel-2"]; !ok {
		t.Errorf("sub-benchmark -2 must survive suffix stripping: %v", got)
	}

	// Mixed trailing digits (GOMAXPROCS=1 output with -N sub-benchmarks)
	// must not be stripped, or parallel-2 and parallel-4 would collide.
	mixed := `BenchmarkBar/parallel-2   10   200 ns/op
BenchmarkBar/parallel-4   10   300 ns/op
`
	got, err = parseBench(strings.NewReader(mixed), "auto")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("parallel-2/parallel-4 collided: %v", got)
	}
}

func TestConvertMergesLabels(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "bench.json")

	feed := func(label, text string) {
		t.Helper()
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		origStdin := os.Stdin
		os.Stdin = r
		defer func() { os.Stdin = origStdin }()
		if _, err := w.WriteString(text); err != nil {
			t.Fatal(err)
		}
		w.Close()
		if err := convert(label, out, "", "auto"); err != nil {
			t.Fatal(err)
		}
	}
	feed("before", sample)
	feed("after", strings.ReplaceAll(sample, "79749", "39000"))

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Labels["before"]["BenchmarkRunIndependentALU"].NsOp != 79749 {
		t.Errorf("label %q was not preserved across merges: %+v", "before", doc.Labels)
	}
	if doc.Labels["after"]["BenchmarkRunIndependentALU"].NsOp != 39000 {
		t.Errorf("label %q not recorded: %+v", "after", doc.Labels)
	}
}

func TestParseBenchSuffixModes(t *testing.T) {
	// GOMAXPROCS=1 output filtered to names all ending in "-2": auto would
	// misread the uniform "-2" as a cpu suffix; -cpusuffix=keep preserves it.
	text := `BenchmarkBar/parallel-2   10   200 ns/op
BenchmarkBaz/parallel-2   10   300 ns/op
`
	got, err := parseBench(strings.NewReader(text), "keep")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got["BenchmarkBar/parallel-2"]; !ok {
		t.Errorf("keep mode stripped the name: %v", got)
	}
	// strip mode removes a per-name trailing -N, but refuses when that
	// would merge distinct benchmarks.
	got, err = parseBench(strings.NewReader("BenchmarkFoo-16   10   100 ns/op\n"), "strip")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got["BenchmarkFoo"]; !ok {
		t.Errorf("strip mode kept the suffix: %v", got)
	}
	collide := `BenchmarkBar/parallel-2   10   200 ns/op
BenchmarkBar/parallel-4   10   300 ns/op
`
	got, err = parseBench(strings.NewReader(collide), "strip")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("strip mode merged colliding names: %v", got)
	}
}

func TestCompareFailAbove(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.txt")
	newPath := filepath.Join(dir, "new.txt")
	write := func(path, text string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(oldPath, "BenchmarkRunA-8 100 1000 ns/op\nBenchmarkRunB-8 100 2000 ns/op\n")

	// Within tolerance: 5% over on A, B improved.
	write(newPath, "BenchmarkRunA-8 100 1050 ns/op\nBenchmarkRunB-8 100 1500 ns/op\n")
	if err := compare(oldPath, newPath, "auto", 10); err != nil {
		t.Fatalf("5%% regression under a 10%% gate failed: %v", err)
	}
	// Beyond tolerance: A is 50% slower.
	write(newPath, "BenchmarkRunA-8 100 1500 ns/op\nBenchmarkRunB-8 100 1500 ns/op\n")
	if err := compare(oldPath, newPath, "auto", 10); err == nil {
		t.Fatal("50% regression under a 10% gate did not fail")
	}
	// Negative threshold disables the gate entirely.
	if err := compare(oldPath, newPath, "auto", -1); err != nil {
		t.Fatalf("disabled gate failed: %v", err)
	}
}

// TestCompareGatesMedian: the gate compares medians, so one round that host
// noise slowed fivefold does not fail it, while a benchmark slower in most
// rounds does.
func TestCompareGatesMedian(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.txt")
	newPath := filepath.Join(dir, "new.txt")
	write := func(path string, ns ...int) {
		t.Helper()
		var b strings.Builder
		for _, v := range ns {
			fmt.Fprintf(&b, "BenchmarkRunA-8 100 %d ns/op\n", v)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(oldPath, 1000, 1010, 990, 1000, 1005)
	write(newPath, 1000, 5000, 990, 1010, 1000)
	if err := compare(oldPath, newPath, "auto", 30); err != nil {
		t.Fatalf("one slow round failed a median gate: %v", err)
	}
	write(newPath, 1000, 1500, 1600, 1550, 990)
	if err := compare(oldPath, newPath, "auto", 30); err == nil {
		t.Fatal("a benchmark 50% slower in most rounds passed the median gate")
	}
}
