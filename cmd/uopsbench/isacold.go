package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"uopsinfo/internal/engine"
	"uopsinfo/internal/iaca"
	"uopsinfo/internal/uarch"
)

// isaSetup is what isa-cold sets up: every generation's instruction set and
// performance tables (process-wide, so built by the first set-up only), and
// the IACA analyzers the results XML embeds.
func isaSetup() (map[uarch.Generation][]*iaca.Analyzer, error) {
	analyzers := map[uarch.Generation][]*iaca.Analyzer{}
	for _, arch := range uarch.All() {
		for _, in := range arch.InstrSet().Instrs() {
			arch.Perf(in)
		}
		a, err := analyzersFor(arch)
		if err != nil {
			return nil, err
		}
		analyzers[arch.Gen()] = a
	}
	return analyzers, nil
}

// runISACold characterizes the full ISA of every generation, pass after
// pass until the window is spent (the first pass always completes), each
// pass on a fresh engine (2 workers, no store) in a seed-shuffled generation
// order; it renders each generation's results XML and checks it against the
// golden digest. One checked operation is one generation: characterization
// plus rendering; cpu_ms_per_op is per variant. Every metric comes from each
// generation's median call, so a pass cut short by the window's end, which
// covers a seed-dependent share of the generations, weighs no more than a
// full one.
func runISACold(e *env) (*outcome, error) {
	o := newOutcome()
	analyzers, err := repeatSetup(e, o, isaSetup, func(map[uarch.Generation][]*iaca.Analyzer) {})
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(e.seed))
	mark := 0
	if e.tr != nil {
		mark = e.tr.mark()
	}
	times := map[uarch.Generation][]float64{} // wall seconds per call
	cpus := map[uarch.Generation][]float64{}  // CPU seconds per call
	variants := map[uarch.Generation]int{}
	var renderNS int64
	var acc accuracy
	var total engine.Stats // summed over the passes' fresh engines
	deadline := time.Now().Add(e.window)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		// Each pass starts from a collected heap, as a fresh uopsinfo
		// process would, so the last pass's garbage neither raises the peak
		// RSS nor bills its collection to this pass's calls.
		runtime.GC()
		eng, err := engine.New(engine.Config{Workers: engineWorkers, Backend: e.backend(tracedLocal, "")})
		if err != nil {
			return nil, err
		}
		gens := uarch.All()
		rng.Shuffle(len(gens), func(i, j int) { gens[i], gens[j] = gens[j], gens[i] })
		for _, arch := range gens {
			if pass > 0 && !time.Now().Before(deadline) {
				break
			}
			c0, t0 := e.cpuTime(), time.Now()
			res, err := eng.CharacterizeArch(arch.Gen(), engine.RunOptions{Only: universe(arch, e.stride)})
			t1 := time.Now()
			if err != nil {
				o.check(false, "%s: %v", arch.Name(), err)
				continue
			}
			digest, err := renderDigest(res, analyzers[arch.Gen()])
			t2, c2 := time.Now(), e.cpuTime()
			if err != nil {
				o.check(false, "%s: rendering: %v", arch.Name(), err)
				continue
			}
			want := e.golden.digest(e.stride, arch.Name())
			o.check(digest == want, "%s: results XML sha256 %s, golden %s", arch.Name(), digest, want)
			times[arch.Gen()] = append(times[arch.Gen()], t2.Sub(t0).Seconds())
			cpus[arch.Gen()] = append(cpus[arch.Gen()], (c2 - c0).Seconds())
			variants[arch.Gen()] = len(res.Results)
			renderNS += int64(t2.Sub(t1))
			if pass == 0 {
				acc.add(arch, res)
			}
			if e.tr != nil {
				e.tr.record(span{Name: "engine.call", Attr: arch.Name(), Req: fmt.Sprint(pass), Start: e.tr.at(t0), End: e.tr.at(t1)})
				e.tr.record(span{Name: "xmlout.render", Attr: arch.Name(), Req: fmt.Sprint(pass), Start: e.tr.at(t1), End: e.tr.at(t2)})
			}
		}
		total = addStats(total, eng.Stats())
	}
	var perGen []float64
	var n, passTime, passCPU float64
	calls := 0
	for _, arch := range uarch.All() {
		if len(times[arch.Gen()]) == 0 {
			continue // every call failed; the checks count it
		}
		m := median(times[arch.Gen()])
		perGen = append(perGen, m)
		passTime += m
		passCPU += median(cpus[arch.Gen()])
		n += float64(variants[arch.Gen()])
		calls += len(times[arch.Gen()])
	}
	o.cpuPerOp(time.Duration(passCPU*float64(time.Second)), int(n))
	o.throughput(n, passTime, calls)
	o.latency(perGen)
	acc.set(o)

	if e.tr == nil {
		return o, nil
	}
	spans := e.tr.since(mark)
	engineLayer(o, engine.Stats{}, total)
	callLayer(o, spans)
	o.layer["xmlout.render_s"] = float64(renderNS) / 1e9

	// The replay rediscovers blocking sets, as every cold pass does.
	spec := replaySpec{backend: tracedLocal, sim: &localRuns}
	for _, arch := range uarch.All() {
		spec.gens = append(spec.gens, replayGen{gen: arch.Gen(), names: variantNames(arch, e.stride)})
	}
	replayed, _, err := e.replay(o, spec)
	if err != nil {
		return nil, err
	}
	for _, arch := range uarch.All() {
		digest, err := renderDigest(replayed[arch.Gen()], analyzers[arch.Gen()])
		want := e.golden.digest(e.stride, arch.Name())
		o.check(err == nil && digest == want, "%s: replayed results XML sha256 %s (%v), golden %s", arch.Name(), digest, err, want)
	}
	return o, nil
}

// isaDigests characterizes every generation once, as an isa-cold pass does,
// and returns the results-XML digests (for recording golden.json).
func isaDigests(stride int) (map[string]string, error) {
	eng, err := engine.New(engine.Config{Workers: engineWorkers})
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, arch := range uarch.All() {
		res, err := eng.CharacterizeArch(arch.Gen(), engine.RunOptions{Only: universe(arch, stride)})
		if err != nil {
			return nil, err
		}
		an, err := analyzersFor(arch)
		if err != nil {
			return nil, err
		}
		if out[arch.Name()], err = renderDigest(res, an); err != nil {
			return nil, err
		}
	}
	return out, nil
}
