package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strconv"

	"uopsinfo/internal/core"
	"uopsinfo/internal/engine"
	"uopsinfo/internal/iaca"
	"uopsinfo/internal/store"
	"uopsinfo/internal/store/storefs"
	"uopsinfo/internal/uarch"
	"uopsinfo/internal/xmlout"
)

//go:embed testdata/golden.json
var goldenJSON []byte

// goldenSet maps a sample stride (as a decimal string) and a generation name
// to the sha256 of that generation's results XML, recorded from a known-good
// commit. Stride 1 is the benchmark; stride 64 serves the smoke tests.
type goldenSet map[string]map[string]string

func loadGolden() (goldenSet, error) {
	var g goldenSet
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("decoding golden digests: %w", err)
	}
	return g, nil
}

func (g goldenSet) digest(stride int, gen string) string { return g[strconv.Itoa(stride)][gen] }

// universe is the variant selection a workload treats as "the whole
// generation": nil (every variant) at stride 1, every stride-th variant
// otherwise, as uopsinfo's -sample selects them.
func universe(arch *uarch.Arch, stride int) []string {
	if stride <= 1 {
		return nil
	}
	var only []string
	instrs := arch.InstrSet().Instrs()
	for i := 0; i < len(instrs); i += stride {
		only = append(only, instrs[i].Name)
	}
	return only
}

// variantNames lists the variants of a generation's universe.
func variantNames(arch *uarch.Arch, stride int) []string {
	if only := universe(arch, stride); only != nil {
		return only
	}
	return arch.InstrSet().Names()
}

// analyzersFor builds a generation's IACA analyzers, as cmd/uopsinfo does
// for its results file.
func analyzersFor(arch *uarch.Arch) ([]*iaca.Analyzer, error) {
	var out []*iaca.Analyzer
	for _, v := range iaca.SupportedVersions(arch.Gen()) {
		a, err := iaca.New(v, arch)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// renderDigest renders one generation's results XML exactly as cmd/uopsinfo
// and uopsd do and returns its sha256.
func renderDigest(res *core.ArchResult, analyzers []*iaca.Analyzer) (string, error) {
	h := sha256.New()
	if err := xmlout.Write(h, xmlout.Single(xmlout.FromArchResult(res, analyzers))); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// accuracy compares characterized (not skipped) variants with the uarch
// ground truth: the port usage, and the µop count rounded to an integer.
// This model has not been checked against real hardware; the numbers only
// compare it with its own ground truth.
type accuracy struct{ n, ports, uops int }

func (a *accuracy) add(arch *uarch.Arch, res *core.ArchResult) {
	set := arch.InstrSet()
	for _, name := range res.Names() {
		r := res.Results[name]
		in := set.Lookup(name)
		if r.Skipped != "" || in == nil {
			continue
		}
		truth := core.GroundTruthUsage(arch.Perf(in))
		a.n++
		if r.Ports.Equal(truth) {
			a.ports++
		}
		if int(r.Uops+0.5) == int(truth.TotalUops()) {
			a.uops++
		}
	}
}

func (a accuracy) set(o *outcome) {
	o.e2e["ports_exact_pct"] = 100 * ratio(float64(a.ports), float64(a.n))
	o.e2e["uops_exact_pct"] = 100 * ratio(float64(a.uops), float64(a.n))
	o.samples["ports_exact_pct"] = a.n
	o.samples["uops_exact_pct"] = a.n
}

// sameRecords reports whether res holds exactly the named variants, each
// equal to its reference record; it returns a description of the first
// difference.
func sameRecords(res *core.ArchResult, names []string, ref *core.ArchResult) (bool, string) {
	if len(res.Results) != len(names) {
		return false, fmt.Sprintf("%d records for %d variants", len(res.Results), len(names))
	}
	for _, name := range names {
		want := ref.Results[name]
		if want == nil {
			return false, "no reference record for " + name
		}
		if !reflect.DeepEqual(res.Results[name], want) {
			return false, "record of " + name + " differs from the reference"
		}
	}
	return true, ""
}

// storeFixture is a durable store cold-filled with the store generation's
// universe, the engine over it, and the filled records, which serve as the
// reference for every later read.
type storeFixture struct {
	dir string
	eng *engine.Engine
	ref *core.ArchResult
}

// fillStore opens a fresh durable store (uopsd's default durability) and
// cold-fills it. Traced runs hand the engine a store on the timing
// filesystem, opened with the options engine.New would use.
func (e *env) fillStore() (*storeFixture, error) {
	dir, err := os.MkdirTemp(e.dir, "store-")
	if err != nil {
		return nil, err
	}
	cfg := engine.Config{Workers: engineWorkers, Backend: e.backend(tracedLocal, "")}
	if e.tr == nil {
		cfg.CacheDir, cfg.StoreDurable = dir, true
	} else {
		st, err := store.OpenOptions(dir, store.Options{
			FS:         timingFS{inner: storefs.OS{}, c: &e.tr.fs},
			Durability: store.DurabilityFull,
		})
		if err != nil {
			return nil, err
		}
		cfg.Store = st
	}
	eng, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	ref, err := eng.CharacterizeArch(storeGen, engine.RunOptions{Only: universe(uarch.Get(storeGen), e.stride)})
	if err != nil {
		return nil, fmt.Errorf("filling the store: %w", err)
	}
	return &storeFixture{dir: dir, eng: eng, ref: ref}, nil
}

func (fx *storeFixture) release() { os.RemoveAll(fx.dir) }

// diskMB is the size of the files under dir in MiB.
func diskMB(dir string) float64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return float64(total) / (1 << 20)
}

// engineLayer sets the engine-, measure- and store-layer metrics from two
// engine.Stats snapshots taken around a measured phase.
func engineLayer(o *outcome, before, after engine.Stats) {
	d := func(a, b int) float64 { return float64(a - b) }
	o.layer["engine.runs"] = d(after.Runs, before.Runs)
	o.layer["engine.coalesced_waiters"] = d(after.CoalescedWaiters, before.CoalescedWaiters)
	hits, misses := d(after.ResultHits, before.ResultHits), d(after.ResultMisses, before.ResultMisses)
	o.layer["engine.result_hits"] = hits
	o.layer["engine.result_misses"] = misses
	o.layer["engine.result_hit_ratio"] = ratio(hits, hits+misses)
	o.layer["engine.variant_hits"] = d(after.VariantHits, before.VariantHits)
	o.layer["engine.variants_measured"] = d(after.VariantsMeasured, before.VariantsMeasured)
	o.layer["measure.pool_forked"] = float64(after.PoolForked - before.PoolForked)
	o.layer["measure.pool_reused"] = float64(after.PoolReused - before.PoolReused)
	o.layer["measure.seq_built"] = float64(after.PoolSeqBuilt - before.PoolSeqBuilt)
	o.layer["measure.seq_reused"] = float64(after.PoolSeqReused - before.PoolSeqReused)
	if after.Store != nil && before.Store != nil {
		o.layer["store.compactions"] = float64(after.Store.Compactions - before.Store.Compactions)
		o.layer["store.corrupt"] = float64(after.Store.Corrupt - before.Store.Corrupt)
	}
}

// addStats adds the counters engineLayer reads.
func addStats(a, b engine.Stats) engine.Stats {
	a.Runs += b.Runs
	a.CoalescedWaiters += b.CoalescedWaiters
	a.ResultHits += b.ResultHits
	a.ResultMisses += b.ResultMisses
	a.VariantHits += b.VariantHits
	a.VariantsMeasured += b.VariantsMeasured
	a.PoolForked += b.PoolForked
	a.PoolReused += b.PoolReused
	a.PoolSeqBuilt += b.PoolSeqBuilt
	a.PoolSeqReused += b.PoolSeqReused
	return a
}

// storeLayer sets the filesystem metrics of a measured phase.
func storeLayer(o *outcome, d fsTotals) {
	for k, name := range fsKindNames {
		o.layer["store."+name+"_ops"] = float64(d.ops[k])
		o.layer["store."+name+"_s"] = float64(d.ns[k]) / 1e9
	}
	o.layer["store.read_bytes"] = float64(d.bytes[fsRead])
	o.layer["store.write_bytes"] = float64(d.bytes[fsWrite])
}

// callLayer sets the engine-call latency metrics from the engine.call spans
// of a measured phase.
func callLayer(o *outcome, spans []span) {
	var ms []float64
	for _, s := range spans {
		if s.Name == "engine.call" {
			ms = append(ms, float64(s.dur())/1e6)
		}
	}
	o.layer["engine.call_p50_ms"] = percentile(ms, 0.50)
	o.layer["engine.call_p99_ms"] = percentile(ms, 0.99)
}
