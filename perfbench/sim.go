package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"declust"
	"declust/internal/metrics"
)

// simConfig is the paper's reconstruction experiment at full IBM 0661
// scale: C=21, G=5, 210 accesses/s open Poisson arrivals, half reads, 8
// reconstruction processes, the baseline algorithm.
func simConfig(parities int, seed int64) declust.SimConfig {
	return declust.SimConfig{
		C: arrayC, G: arrayG, RatePerSec: 210, ReadFraction: 0.5,
		ReconProcs: 8, Algorithm: declust.Baseline, Parities: parities, Seed: seed,
	}
}

// simCodes are the two codes each sim-recon round runs.
var simCodes = []struct {
	name     string
	parities int
}{{"p", 1}, {"pq", 2}}

// simRef is a code's reference run: the results every later run of the
// same seed must repeat exactly, and the simulated response times.
type simRef struct {
	events        uint64
	reconMS       float64
	requests      int
	reads, writes hist // simulated response times, ns
}

// latencyTracer files each measured access's simulated response time.
type latencyTracer struct {
	metrics.Nop
	ref *simRef
}

func (t latencyTracer) Access(e metrics.AccessEvent) {
	ns := int64((e.DoneMS - e.ArriveMS) * 1e6)
	if e.Read {
		t.ref.reads.add(ns)
	} else {
		t.ref.writes.add(ns)
	}
}

// simOutcome is one sim-recon measurement.
type simOutcome struct {
	setups            []time.Duration
	wall              [][]time.Duration // per code, per run
	requests          int64
	busy              time.Duration // wall time of all timed runs
	refs              []*simRef
	attempted, failed int64
	firstErr          error
	// Traced runs only, per code: allocations per request.
	allocsPerReq []float64
}

func (o *simOutcome) fail(err error) {
	o.failed++
	if o.firstErr == nil {
		o.firstErr = err
	}
}

// simSetups is how many times a run sets the simulator up; setup_s is
// the median.
const simSetups = 7

// runSim sets up the simulator (builds both mappings and a full-scale
// array over each), makes one reference run per code with its response
// times traced, then alternates the codes until secs have passed,
// checking each run against the reference.
func runSim(seed int64, secs float64, traced bool, rec *recorder) *simOutcome {
	o := &simOutcome{wall: make([][]time.Duration, len(simCodes))}
	for i := 0; i < simSetups; i++ {
		// Each set-up starts from an empty heap, as a fresh process does.
		runtime.GC()
		debug.FreeOSMemory()
		start := time.Now()
		err := simSetup()
		o.setups = append(o.setups, time.Since(start))
		o.attempted++
		if err != nil {
			o.fail(err)
		}
	}
	runtime.GC()
	debug.FreeOSMemory()

	for _, code := range simCodes {
		ref := &simRef{}
		cfg := simConfig(code.parities, seed)
		cfg.Tracer = latencyTracer{ref: ref}
		o.attempted++
		m, err := declust.RunReconstruction(cfg)
		if err != nil {
			o.fail(fmt.Errorf("reference run, code %s: %w", code.name, err))
		}
		ref.events, ref.reconMS, ref.requests = m.EngineEvents, m.ReconTimeMS, m.Requests
		o.refs = append(o.refs, ref)
	}

	allocs := make([]uint64, len(simCodes))
	reqs := make([]int64, len(simCodes))
	deadline := time.Now().Add(time.Duration(secs * float64(time.Second)))
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		for i, code := range simCodes {
			var ms runtime.MemStats
			if traced {
				runtime.ReadMemStats(&ms)
			}
			mallocs := ms.Mallocs
			start := time.Now()
			m, err := declust.RunReconstruction(simConfig(code.parities, seed))
			d := time.Since(start)
			if traced {
				runtime.ReadMemStats(&ms)
				allocs[i] += ms.Mallocs - mallocs
				rec.record("sim", "RunReconstruction."+code.name, 0, start, d)
			}
			o.wall[i] = append(o.wall[i], d)
			o.busy += d
			o.requests += int64(m.Requests)
			reqs[i] += int64(m.Requests)
			o.attempted++
			switch {
			case err != nil:
				o.fail(fmt.Errorf("code %s: %w", code.name, err))
			case m.EngineEvents != o.refs[i].events || m.ReconTimeMS != o.refs[i].reconMS:
				o.fail(fmt.Errorf("code %s: run gave %d events and %.6f ms, reference %d and %.6f ms",
					code.name, m.EngineEvents, m.ReconTimeMS, o.refs[i].events, o.refs[i].reconMS))
			case m.Requests == 0:
				o.fail(fmt.Errorf("code %s: no requests completed", code.name))
			}
		}
	}
	if traced {
		for i := range simCodes {
			o.allocsPerReq = append(o.allocsPerReq, float64(allocs[i])/float64(max(reqs[i], 1)))
		}
	}
	return o
}

// simSetup builds what a reconstruction run builds before it starts:
// the P and P+Q mappings and a full-scale simulated array over each.
func simSetup() error {
	m, err := declust.NewMapping(arrayC, arrayG, 0)
	if err != nil {
		return err
	}
	pq, err := declust.NewPQMapping(arrayC, arrayG, 0)
	if err != nil {
		return err
	}
	if _, err := declust.NewIdleArray(m, 1); err != nil {
		return err
	}
	_, err = declust.NewIdleArray(pq, 1)
	return err
}
