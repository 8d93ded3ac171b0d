package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"time"

	"uopsinfo/internal/engine"
	"uopsinfo/internal/measure"
	"uopsinfo/internal/measure/remote"
	"uopsinfo/internal/service"
	"uopsinfo/internal/uarch"
)

// The loopback fleet: fleetWorkers uopsd services (1 worker each, no store)
// on real loopback servers, one batch in flight per worker.
const (
	fleetWorkers  = 2
	fleetInFlight = 1
	fleetEvery    = 3 // characterize every 3rd Skylake variant
)

// fleetFixture is a configured fleet and the front engine measuring on it,
// warmed up by one pass over the workload's variants.
type fleetFixture struct {
	workers []*httptest.Server
	front   *engine.Engine
	names   []string
}

// fleetNames lists the variants fleet-loopback characterizes.
func fleetNames(stride int) []string {
	var names []string
	instrs := uarch.Get(uarch.Skylake).InstrSet().Instrs()
	for i := 0; i < len(instrs); i += fleetEvery * stride {
		names = append(names, instrs[i].Name)
	}
	return names
}

func (e *env) startFleet() (*fleetFixture, error) {
	fx := &fleetFixture{}
	urls := make([]string, fleetWorkers)
	for i := range urls {
		weng, err := engine.New(engine.Config{Workers: 1, Backend: e.backend(tracedWorker, "")})
		if err != nil {
			fx.release()
			return nil, err
		}
		svc, err := service.New(service.Config{Engine: weng})
		if err != nil {
			fx.release()
			return nil, err
		}
		var h http.Handler = svc
		if e.tr != nil {
			h = e.tr.handler("worker.request", svc)
		}
		srv := httptest.NewServer(h)
		fx.workers = append(fx.workers, srv)
		urls[i] = srv.URL
	}
	opts := remote.Options{Workers: urls, InFlight: fleetInFlight}
	if e.tr != nil {
		opts.Client = &http.Client{Transport: &transport{base: http.DefaultTransport, t: e.tr}}
	}
	if err := remote.Configure(opts); err != nil {
		fx.release()
		return nil, err
	}
	front, err := engine.New(engine.Config{Workers: engineWorkers, Backend: e.backend(tracedRemote, remote.BackendName)})
	if err != nil {
		fx.release()
		return nil, err
	}
	fx.front = front
	fx.names = fleetNames(e.stride)
	if _, err := front.CharacterizeArch(uarch.Skylake, engine.RunOptions{Only: fx.names}); err != nil {
		fx.release()
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	return fx, nil
}

// release closes the workers; the next remote.Configure (or Shutdown)
// closes the fleet client.
func (fx *fleetFixture) release() {
	for _, srv := range fx.workers {
		srv.Close()
	}
}

// runFleet characterizes the same Skylake variants pass after pass on the
// front engine, each pass in a seed-shuffled order, and compares every
// record with the local reference. One operation is one variant record, at
// the median pass's cost; latency is per pass. The CPU time is the whole
// process's: the front engine, the fleet client and both workers.
func runFleet(e *env) (*outcome, error) {
	o := newOutcome()
	defer remote.Shutdown()
	fx, err := repeatSetup(e, o, e.startFleet, (*fleetFixture).release)
	if err != nil {
		return nil, err
	}
	defer fx.release()
	local, err := engine.New(engine.Config{Workers: engineWorkers})
	if err != nil {
		return nil, err
	}
	ref, err := local.CharacterizeArch(uarch.Skylake, engine.RunOptions{Only: fx.names})
	if err != nil {
		return nil, fmt.Errorf("local reference: %w", err)
	}
	var acc accuracy
	acc.add(uarch.Get(uarch.Skylake), ref)
	acc.set(o)

	rng := rand.New(rand.NewSource(e.seed))
	mark := 0
	var workerBefore, remoteBefore runTotals
	if e.tr != nil {
		mark, workerBefore, remoteBefore = e.tr.mark(), workerRuns.snapshot(), remoteRuns.snapshot()
	}
	statsBefore := fx.front.Stats()
	var passes, cpus []float64 // wall and CPU seconds per pass
	start := time.Now()
	for pass := 0; ; pass++ {
		order := append([]string(nil), fx.names...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var id int64
		if e.tr != nil {
			id = e.tr.newID()
			e.tr.current.Store(id)
		}
		c0, t0 := e.cpuTime(), time.Now()
		res, err := fx.front.CharacterizeArch(uarch.Skylake, engine.RunOptions{Only: order})
		d, c := time.Since(t0), e.cpuTime()-c0
		if e.tr != nil {
			e.tr.record(span{ID: id, Name: "engine.call", Req: strconv.Itoa(pass), Start: e.tr.at(t0), End: e.tr.at(t0.Add(d))})
		}
		if err != nil {
			o.check(false, "pass %d: %v", pass, err)
		} else {
			for _, name := range fx.names {
				o.check(reflect.DeepEqual(res.Results[name], ref.Results[name]),
					"pass %d: record of %s differs from the local reference", pass, name)
			}
		}
		passes = append(passes, d.Seconds())
		cpus = append(cpus, c.Seconds())
		if elapsed := time.Since(start); elapsed+elapsed/time.Duration(pass+1) > e.window {
			break
		}
	}
	n := len(fx.names)
	o.cpuPerOp(time.Duration(median(cpus)*float64(time.Second)), n)
	o.throughput(float64(n), median(passes), len(passes))
	o.latency(passes)

	if e.tr == nil {
		return o, nil
	}
	statsAfter := fx.front.Stats()
	spans := e.tr.since(mark)
	engineLayer(o, statsBefore, statsAfter)
	callLayer(o, spans)
	fleetLayer(o, spans, statsBefore.Fleet, statsAfter.Fleet)
	o.layer["fleet.run_wait_s"] = float64(remoteRuns.snapshot().sub(remoteBefore).busyNS) / 1e9
	o.layer["fleet.worker_pipesim_busy_s"] = float64(workerRuns.snapshot().sub(workerBefore).busyNS) / 1e9

	e.tr.current.Store(0)
	c, err := fx.front.Characterizer(uarch.Skylake)
	if err != nil {
		return nil, err
	}
	bs, err := c.Blocking()
	if err != nil {
		return nil, err
	}
	replayed, front, err := e.replay(o, replaySpec{backend: tracedRemote, sim: &workerRuns,
		gens: []replayGen{{gen: uarch.Skylake, names: fx.names, blocking: bs}}})
	if err != nil {
		return nil, err
	}
	o.layer["fleet.run_calls"] = float64(front.calls)
	ok, why := sameRecords(replayed[uarch.Skylake], fx.names, ref)
	o.check(ok, "replay: %s", why)
	return o, nil
}

// fleetLayer sets the fleet-layer metrics of the measured passes from the
// batch and worker spans and the fleet counters.
func fleetLayer(o *outcome, spans []span, before, after *measure.FleetStats) {
	var rtt, handler []float64
	var rttNS, handlerNS, reqBytes, respBytes int64
	for _, s := range spans {
		switch {
		case s.Name == "fleet.batch":
			rtt = append(rtt, float64(s.dur())/1e3)
			rttNS += s.End - s.Start
			reqBytes += s.ReqBytes
			respBytes += s.RespBytes
		case s.Name == "worker.request" && s.Parent != 0:
			handler = append(handler, float64(s.dur())/1e3)
			handlerNS += s.End - s.Start
		}
	}
	o.layer["fleet.rtt_p50_us"] = percentile(rtt, 0.50)
	o.layer["fleet.worker_handler_p50_us"] = percentile(handler, 0.50)
	o.layer["fleet.wire_overhead_s"] = float64(rttNS-handlerNS) / 1e9
	o.layer["fleet.req_bytes"] = float64(reqBytes)
	o.layer["fleet.resp_bytes"] = float64(respBytes)
	if before == nil || after == nil {
		return
	}
	batches, seqs := float64(after.Batches-before.Batches), float64(after.Sequences-before.Sequences)
	o.layer["fleet.batches"] = batches
	o.layer["fleet.seqs"] = seqs
	o.layer["fleet.seqs_per_batch"] = ratio(seqs, batches)
	o.layer["fleet.deduped"] = float64(after.Deduped - before.Deduped)
	o.layer["fleet.retries"] = float64(after.Retries - before.Retries)
	o.layer["fleet.hedges"] = float64(after.Hedges - before.Hedges)
}
