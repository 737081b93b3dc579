package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/metrics"

	"drmap/internal/accel"
	"drmap/internal/cluster"
	"drmap/internal/cnn"
	"drmap/internal/core"
	"drmap/internal/dram"
	"drmap/internal/mapping"
	"drmap/internal/memctrl"
	"drmap/internal/profile"
	"drmap/internal/report"
	"drmap/internal/service"
	"drmap/internal/sim"
	"drmap/internal/tiling"
	"drmap/internal/trace"
)

// The replay half of the traced run: measured inputs run again through
// the public functions of each layer the serving path calls, each call
// inside a span, so a layer's cost is timed where its work happens.

// dseItem is one DSE input to replay.
type dseItem struct {
	backend dram.Backend
	net     cnn.Network
	obj     core.Objective
}

// simItem is one layer simulation to replay.
type simItem struct {
	backend dram.Backend
	policy  mapping.Policy
	spec    core.LayerSpec
	opt     memctrl.Options
}

// replayCounts accumulates the replay's work counts.
type replayCounts struct {
	columns, layers, networks, results int64
	tilings, tileGroups, cells         int64
	countAllocs                        uint64
	bursts, requests, commands         int64
	events                             [2]int64 // serial, parallel
	characterizations                  int64
}

type replayer struct {
	tr    *tracer
	n     replayCounts
	profs profiles
}

var allocObjects = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

func heapObjects() uint64 {
	metrics.Read(allocObjects)
	return allocObjects[0].Value.Uint64()
}

// profile returns b's profile, timing and counting the first call per
// backend, the one that characterizes.
func (rp *replayer) profile(b dram.Backend, parent int64) (*profile.Profile, error) {
	if rp.profs.has(b.ID) {
		return rp.profs.of(b)
	}
	var p *profile.Profile
	var err error
	rp.tr.timed("profile.characterize", parent, func() { p, err = rp.profs.of(b) })
	if err == nil {
		rp.n.characterizations++
	}
	return p, err
}

// dse replays one DSE: enumerate the grid, count, flatten, price and
// reduce each column, encode the answer, merge the cells the way a
// coordinator does, and check the merge equals the reduction. It
// returns the picks as simulation inputs.
func (rp *replayer) dse(it dseItem) ([]simItem, error) {
	root := rp.tr.begin("replay.dse", 0)
	defer rp.tr.finish(root)
	p, err := rp.profile(it.backend, root.ID)
	if err != nil {
		return nil, err
	}
	ev, err := core.NewEvaluator(p, accel.TableII(), 1)
	if err != nil {
		return nil, err
	}
	pols := mapping.TableI()
	var grids []core.LayerGrid
	rp.tr.timed("tiling.enumerate", root.ID, func() {
		grids, err = core.DSEGridFor(it.net, accel.TableII(), tiling.Schedules, pols)
	})
	if err != nil {
		return nil, err
	}
	rp.n.networks++
	res := &core.DSEResult{Backend: it.backend, Arch: it.backend.Config.Arch}
	var cells []core.CellResult
	for _, lg := range grids {
		var layerCells []core.CellResult
		for si, s := range tiling.Schedules {
			rp.n.columns++
			rp.n.tilings += int64(len(lg.Tilings))
			for _, tl := range lg.Tilings {
				rp.n.tileGroups += int64(len(tiling.TileGroups(lg.Layer, tl, s, 1)))
			}
			var cc *core.CountColumn
			a0 := heapObjects()
			rp.tr.timed("core.count", root.ID, func() { cc = ev.CountScheduleColumn(lg, si, s, pols) })
			rp.n.countAllocs += heapObjects() - a0
			var fc *core.FlatColumn
			rp.tr.timed("core.flatten", root.ID, func() { fc = cc.Flatten() })
			var out []core.CellResult
			rp.tr.timed("core.price", root.ID, func() { out = ev.PriceFlatInto(fc, it.obj, nil) })
			rp.n.cells += int64(len(out))
			layerCells = append(layerCells, out...)
		}
		var lr core.LayerResult
		rp.tr.timed("core.reduce", root.ID, func() {
			lr = core.ReduceCells(lg, tiling.Schedules, pols, layerCells, ev.Timing())
		})
		rp.n.layers++
		res.Layers = append(res.Layers, lr)
		cells = append(cells, layerCells...)
	}
	rp.tr.timed("report.encode", root.ID, func() {
		_, err = json.Marshal(service.DSEResponse{
			Network: it.net.Name, Objective: it.obj.String(), Batch: 1,
			Result: report.DSEResultJSON(res, it.backend.Config.Timing),
		})
	})
	if err != nil {
		return nil, err
	}
	rp.n.results++
	job := dseJob(it)
	var merged *core.DSEResult
	rp.tr.timed("cluster.merge", root.ID, func() { merged, err = cluster.Merge(job, grids, cells) })
	if err != nil {
		return nil, err
	}
	var picks []simItem
	for i, lr := range res.Layers {
		if m := merged.Layers[i]; m.Best != lr.Best || m.Cost != lr.Cost {
			return nil, fmt.Errorf("replay %s layer %s: merged pick %+v differs from the reduction's %+v", it.net.Name, lr.Layer.Name, m.Best, lr.Best)
		}
		picks = append(picks, simItem{
			backend: it.backend, policy: lr.Best.Policy,
			spec: core.LayerSpec{Layer: lr.Layer, Tiling: lr.Best.Tiling, Schedule: lr.Best.Schedule, Batch: 1},
		})
	}
	return picks, nil
}

func dseJob(it dseItem) service.DSEJob {
	return service.DSEJob{
		Backend: it.backend, Accel: accel.TableII(), Network: it.net,
		Schedules: tiling.Schedules, Policies: mapping.TableI(), Objective: it.obj, Batch: 1,
	}
}

// streamSource feeds one tile stream to a controller agent from the
// policy's address walk, the way the simulate path does.
type streamSource struct {
	op  trace.Op
	n   int64
	gen mapping.AddressGen
}

func (s streamSource) Len() int { return int(s.n) }
func (s streamSource) At(i int) trace.Request {
	return trace.Request{Op: s.op, Addr: s.gen.At(int64(i))}
}

// streamsOf returns a layer's distinct tile streams.
func streamsOf(it simItem) []streamSource {
	g := it.backend.Config.Geometry
	access := int64(g.AccessBytes())
	gen := it.policy.Generator(g)
	var out []streamSource
	for _, grp := range tiling.TileGroups(it.spec.Layer, it.spec.Tiling, it.spec.Schedule, it.spec.Batch) {
		op := trace.Read
		if grp.Write {
			op = trace.Write
		}
		out = append(out, streamSource{op: op, n: (grp.Elems + access - 1) / access, gen: gen})
	}
	return out
}

// addrSink keeps the timed address walk from being optimized away.
var addrSink int

// simulate replays one layer simulation: the address walk alone, every
// stream through Controller.Run, and all streams as agents on the
// serial and then the parallel event engine.
func (rp *replayer) simulate(it simItem) error {
	root := rp.tr.begin("replay.simulate", 0)
	defer rp.tr.finish(root)
	streams := streamsOf(it)
	rp.tr.timed("mapping.addrgen", root.ID, func() {
		for _, s := range streams {
			for k := int64(0); k < s.n; k++ {
				addrSink += s.gen.At(k).Row
			}
		}
	})
	for _, s := range streams {
		rp.n.bursts += s.n
	}
	for _, s := range streams {
		reqs := make([]trace.Request, s.n)
		for i := range reqs {
			reqs[i] = s.At(i)
		}
		ctrl, err := memctrl.New(it.backend.Config, it.opt)
		if err != nil {
			return err
		}
		var res *memctrl.Result
		rp.tr.timed("memctrl.run", root.ID, func() { res, err = ctrl.Run(reqs) })
		if err != nil {
			return err
		}
		rp.n.requests += s.n
		for _, n := range res.KindCounts {
			rp.n.commands += n
		}
	}
	for e, name := range []string{"sim.serial", "sim.parallel"} {
		var eng sim.Engine
		if e == 0 {
			eng = sim.NewSerialEngine()
		} else {
			eng = sim.NewParallelEngine(0)
		}
		opt := it.opt
		opt.DiscardServiced = true
		for _, s := range streams {
			ctrl, err := memctrl.New(it.backend.Config, opt)
			if err != nil {
				return err
			}
			if _, err := memctrl.NewSourceAgent(eng, ctrl, s); err != nil {
				return err
			}
		}
		var err error
		rp.tr.timed(name, root.ID, func() { err = eng.Run(context.Background()) })
		if err != nil {
			return err
		}
		rp.n.events[e] += eng.Scheduled()
	}
	return nil
}

// miniCluster runs inputs through a coordinator with two in-process
// workers, for workloads whose own stack has none, so the shard and
// merge layers are measured on every workload's inputs.
func miniCluster(tr *tracer, dse []dseItem, sims []simItem) error {
	st, err := newStack(2, func(role string, h http.Handler) http.Handler {
		if role == "worker" {
			return tr.wrap(role, h)
		}
		return h
	})
	if err != nil {
		return err
	}
	defer st.close()
	ctx := context.Background()
	for _, it := range dse {
		if _, err := st.coord.RunDSE(ctx, dseJob(it)); err != nil {
			return fmt.Errorf("cluster replay: %w", err)
		}
	}
	for _, it := range sims {
		job := service.SimulateJob{
			Backend: it.backend, Policy: it.policy, Specs: []core.LayerSpec{it.spec},
			BytesPerElement: 1, PagePolicy: it.opt.PagePolicy, Scheduler: it.opt.Scheduler,
		}
		if _, err := st.coord.RunSimulate(ctx, job); err != nil {
			return fmt.Errorf("cluster replay: %w", err)
		}
	}
	return nil
}
