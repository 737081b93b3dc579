package main

import (
	"context"
	"fmt"

	"drmap/internal/cnn"
	"drmap/internal/core"
	"drmap/internal/dram"
	"drmap/internal/mapping"
	"drmap/internal/memctrl"
	"drmap/internal/service"
	"drmap/internal/tiling"
)

// simulate sends v1 /api/v1/simulate requests in single-layer mode:
// address generation, the event engine and the controller do the
// work; no count runs.
type simulate struct {
	seed   int64
	inputs *pool[service.SimulateRequest]
}

// simulateWarm and simulateRate size the input pool: 257 warm-up
// requests make the result cache evict, and runs so far complete under
// 400 requests per second.
const (
	simulateWarm = 512
	simulateRate = 500
)

func (w *simulate) prepare(seconds int) {
	w.inputs = newPool(func(i int) service.SimulateRequest { return simulateJob(w.seed, i) }, simulateWarm, simulateRate*seconds)
}

// simulateChecked is how many answers are re-simulated on the other
// engine after the measured phase.
const simulateChecked = 16

type simAnswer struct {
	req  service.SimulateRequest
	resp service.SimulateResponse
}

// setUp sends warm-up requests until the result cache evicts. Warm-up
// requests take negative indices, so they never pre-compute a measured
// one.
func (w *simulate) setUp(st *stack, cl *client, round int) error {
	for i := 0; st.daemon.svc.CacheStats().Evictions == 0; i++ {
		if i > 4096 {
			return fmt.Errorf("result cache not at its bound after %d warm-up requests", i)
		}
		if _, err := w.send(cl, -1-i); err != nil {
			return fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	return nil
}

func (w *simulate) send(cl *client, i int) (*simAnswer, error) {
	a := &simAnswer{req: w.inputs.at(i)}
	if err := cl.call("POST", "/api/v1/simulate", a.req, &a.resp); err != nil {
		return nil, err
	}
	return a, nil
}

func (w *simulate) do(cl *client, i int) (any, error) { return w.send(cl, i) }

// simSpec resolves a request to the inputs of a direct simulation.
func simSpec(req service.SimulateRequest) (dram.Backend, mapping.Policy, core.LayerSpec, memctrl.Options, error) {
	b, ok := dram.Lookup(req.Arch)
	if !ok {
		return b, mapping.Policy{}, core.LayerSpec{}, memctrl.Options{}, fmt.Errorf("backend %s not registered", req.Arch)
	}
	pol := mapping.Default()
	if req.Policy > 0 {
		pol = mapping.TableI()[req.Policy-1]
	}
	var sched tiling.Schedule
	for k, name := range simSchedules {
		if name == req.Schedule {
			sched = simSchedVals[k]
		}
	}
	t := req.Tiling
	spec := core.LayerSpec{
		Layer:  layerFromJSON(req.Layer),
		Tiling: tiling.Tiling{Th: t.Th, Tw: t.Tw, Tj: t.Tj, Ti: t.Ti}, Schedule: sched, Batch: 1,
	}
	opt := memctrl.Options{}
	if req.Scheduler == "frfcfs" {
		opt.Scheduler = memctrl.FRFCFS
	}
	if req.PagePolicy == "closed" {
		opt.PagePolicy = memctrl.ClosedRow
	}
	return b, pol, spec, opt, nil
}

func (w *simulate) check(recs []record) map[int]error {
	bad := map[int]error{}
	var ok []int
	for i, r := range recs {
		if r.err != nil {
			continue
		}
		a := r.resp.(*simAnswer)
		if err := checkSim(a); err != nil {
			bad[i] = err
			continue
		}
		ok = append(ok, i)
	}
	// The other engine, run directly, must give the identical cost. A
	// second HTTP request would not test this: the engine is not part
	// of the result-cache key, so it would hit the cache.
	for _, k := range sampleIndices(w.seed, saltSimulate, len(ok), simulateChecked) {
		i := ok[k]
		a := recs[i].resp.(*simAnswer)
		b, pol, spec, opt, err := simSpec(a.req)
		if err == nil {
			var res []core.SimLayerResult
			res, err = core.SimulateNetwork(context.Background(), b.Config, pol, []core.LayerSpec{spec},
				core.SimOptions{Controller: opt, Parallel: a.req.Engine != "parallel", BytesPerElement: 1})
			if err == nil && (res[0].Cost.Cycles != a.resp.Cost.Cycles || res[0].Cost.Energy != a.resp.Cost.EnergyJ) {
				err = fmt.Errorf("served %s-engine cost %g cycles %g J, the other engine gives %g cycles %g J",
					a.req.Engine, a.resp.Cost.Cycles, a.resp.Cost.EnergyJ, res[0].Cost.Cycles, res[0].Cost.Energy)
			}
		}
		if err != nil {
			bad[i] = err
		}
	}
	return bad
}

// checkSim validates one answer: finite positive costs, and simulated
// cycles at least the data-bus lower bound.
func checkSim(a *simAnswer) error {
	c := a.resp.Cost
	for _, e := range []error{positive("cycles", c.Cycles), positive("energy", c.EnergyJ), positive("seconds", c.Seconds), positive("EDP", c.EDPJs)} {
		if e != nil {
			return e
		}
	}
	b, _, spec, _, err := simSpec(a.req)
	if err != nil {
		return err
	}
	if lb := busLowerBound(spec.Layer, b.Config); c.Cycles < lb {
		return fmt.Errorf("layer %s on %s: %g simulated cycles, below the data-bus bound %g", spec.Layer.Name, b.ID, c.Cycles, lb)
	}
	return nil
}

// replayPlan replays the first eight requests through the simulate
// layers, the first four layers' DSE through the DSE layers, and
// submits the first eight again as v2 simulate jobs.
func (w *simulate) replayPlan(recs []record) replayPlan {
	var p replayPlan
	for _, r := range recs {
		if r.err != nil || len(p.sims) == 8 {
			continue
		}
		a := r.resp.(*simAnswer)
		b, pol, spec, opt, err := simSpec(a.req)
		if err != nil {
			continue
		}
		p.sims = append(p.sims, simItem{backend: b, policy: pol, spec: spec, opt: opt})
		if len(p.dse) < 4 {
			p.dse = append(p.dse, dseItem{backend: b, net: cnn.Network{Name: spec.Layer.Name, Layers: []cnn.Layer{spec.Layer}}, obj: core.MinimizeEDP})
		}
		req := a.req
		p.jobs = append(p.jobs, service.JobRequest{Kind: string(service.JobSimulate), Simulate: &req})
	}
	return p
}
