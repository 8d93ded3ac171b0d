package main

// The serial replay: a traced run re-executes its workload's
// characterization work one variant at a time through the public core phase
// calls (DiscoverBlocking, MeasuredUops, Latency, PortUsage, Throughput) on
// a single stack. Parallel runs share work between worker stacks in an
// order the scheduler picks, so their Run counts vary from run to run; the
// replay's repeat exactly, and it attributes every Run call to its phase.

import (
	"fmt"
	"time"

	"uopsinfo/internal/core"
	"uopsinfo/internal/isa"
	"uopsinfo/internal/measure"
	"uopsinfo/internal/uarch"
)

// replayGen is one generation's share of a replay. A nil blocking set is
// discovered (and timed as the blocking phase); otherwise the workload's own
// set is reused, because the workload did not pay for discovery either.
type replayGen struct {
	gen      uarch.Generation
	names    []string
	blocking *core.BlockingSet
}

// replaySpec describes a workload's replay: the tracing backend whose runner
// it measures on, the counter of the simulator that runner ends up on (the
// workers' for the fleet), and what to characterize.
type replaySpec struct {
	backend     string
	sim         *runCounter
	gens        []replayGen
	skipLatency bool
}

// replay runs spec and sets the pipesim.* and core.* metrics. It returns the
// replayed results and the Run calls the replay's own runner made.
func (e *env) replay(o *outcome, spec replaySpec) (map[uarch.Generation]*core.ArchResult, runTotals, error) {
	be, ok := measure.Lookup(spec.backend)
	tb, traced := be.(*tracedBackend)
	if !ok || !traced {
		return nil, runTotals{}, fmt.Errorf("replay: %s is not a tracing backend", spec.backend)
	}
	front := tb.runs
	mark := e.tr.mark()
	simBefore, frontBefore := spec.sim.snapshot(), front.snapshot()
	out := map[uarch.Generation]*core.ArchResult{}
	for _, g := range spec.gens {
		arch := uarch.Get(g.gen)
		r, err := be.NewRunner(g.gen)
		if err != nil {
			return nil, runTotals{}, err
		}
		c := core.New(measure.NewWithConfig(r, measure.DefaultConfig()))
		id := e.tr.newID()
		start := time.Now()
		if g.blocking != nil {
			c.SetBlocking(g.blocking)
		} else {
			e.phase(id, "blocking", arch.Name(), front, func() { _, err = c.DiscoverBlocking(core.Options{Workers: 1}) })
			if err != nil {
				return nil, runTotals{}, fmt.Errorf("replay: %s: %w", arch.Name(), err)
			}
		}
		res := core.NewArchResult(arch.Name())
		for _, name := range g.names {
			in := arch.InstrSet().Lookup(name)
			if in == nil {
				return nil, runTotals{}, fmt.Errorf("replay: %s has no variant %s", arch.Name(), name)
			}
			res.Results[name] = e.replayVariant(c, in, spec.skipLatency, id, front)
		}
		e.tr.record(span{ID: id, Name: "replay.gen", Attr: arch.Name(), Start: e.tr.at(start), End: e.tr.at(time.Now())})
		out[g.gen] = res
	}
	pipesimLayer(o, spec.sim.snapshot().sub(simBefore))
	coreLayer(o, e.tr.since(mark))
	return out, front.snapshot().sub(frontBefore), nil
}

// phase runs one characterization phase as a core.<name> span carrying the
// Run calls made during it.
func (e *env) phase(parent int64, name, attr string, runs *runCounter, fn func()) {
	before := runs.snapshot()
	start := time.Now()
	fn()
	end := time.Now()
	d := runs.snapshot().sub(before)
	e.tr.record(span{Parent: parent, Name: "core." + name, Attr: attr, Start: e.tr.at(start), End: e.tr.at(end),
		Runs: d.calls, RunNS: d.busyNS})
}

// replayVariant characterizes one variant as the characterizer's scheduler
// does — same phases, same order, same skip and error records — so the
// replayed results render to the same XML.
func (e *env) replayVariant(c *core.Characterizer, in *isa.Instr, skipLatency bool, parent int64, runs *runCounter) *core.InstrResult {
	r := &core.InstrResult{Name: in.Name, Mnemonic: in.Mnemonic}
	failed := func(what string, err error) *core.InstrResult {
		return &core.InstrResult{Name: in.Name, Mnemonic: in.Mnemonic,
			Skipped: fmt.Sprintf("error: core: measuring %s of %s: %v", what, in.Name, err)}
	}
	var err error
	e.phase(parent, "uops", in.Name, runs, func() { r.Uops, r.UopsIssued, err = c.MeasuredUops(in) })
	if err != nil {
		return failed("µops", err)
	}
	if reason := skipReason(in); reason != "" {
		r.Skipped = reason
		return r
	}
	if !skipLatency {
		e.phase(parent, "latency", in.Name, runs, func() { r.Latency, err = c.Latency(in) })
		if err != nil {
			return failed("latency", err)
		}
	}
	e.phase(parent, "ports", in.Name, runs, func() { r.Ports, err = c.PortUsage(in, r.Latency.MaxLatency()) })
	if err != nil {
		return failed("port usage", err)
	}
	e.phase(parent, "throughput", in.Name, runs, func() { r.Throughput, err = c.Throughput(in, r.Ports) })
	if err != nil {
		return failed("throughput", err)
	}
	return r
}

// skipReason mirrors the characterizer's list of variants it measures only
// the µop count of (the limitations in Section 8 of the paper).
func skipReason(in *isa.Instr) string {
	switch {
	case in.IsSystem:
		return "system instruction"
	case in.IsSerializing:
		return "serializing instruction"
	case in.ControlFlow:
		return "control-flow instruction"
	case in.HasRep:
		return "REP prefix (variable µop count)"
	case in.HasLock:
		return "LOCK prefix"
	}
	return ""
}

func pipesimLayer(o *outcome, d runTotals) {
	o.layer["pipesim.run_calls"] = float64(d.calls)
	o.layer["pipesim.sim_cycles"] = float64(d.cycles)
	o.layer["pipesim.sim_uops"] = float64(d.uops)
	o.layer["pipesim.busy_s"] = float64(d.busyNS) / 1e9
	o.layer["pipesim.ns_per_sim_uop"] = ratio(float64(d.busyNS), float64(d.uops))
}

// coreLayer sums the core.<phase> spans per phase. Self time is the phase's
// time outside Run calls, which includes the LP solves of port usage and
// throughput.
func coreLayer(o *outcome, spans []span) {
	for _, ph := range corePhases {
		var runs, busy, runNS int64
		for _, s := range spans {
			if s.Name == "core."+ph {
				runs += s.Runs
				busy += s.End - s.Start
				runNS += s.RunNS
			}
		}
		o.layer["core."+ph+".run_calls"] = float64(runs)
		o.layer["core."+ph+".busy_s"] = float64(busy) / 1e9
		o.layer["core."+ph+".self_s"] = float64(busy-runNS) / 1e9
	}
}
