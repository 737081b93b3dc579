package main

import (
	"encoding/json"
	"fmt"
	"time"

	"drmap/internal/cnn"
	"drmap/internal/core"
	"drmap/internal/dram"
	"drmap/internal/service"
)

// dseCold submits fresh custom networks as v2 DSE jobs, follows each
// job's event stream to its terminal event and reads the result, the
// way drmap-dse -server does. Every job misses the result, grid and
// plan caches.
type dseCold struct {
	seed   int64
	inputs *pool[service.DSERequest]
}

// dseColdWarm and dseColdRate size the input pool: warm-up jobs until
// the result cache evicts number about 125, and runs so far complete
// under 100 jobs per second.
const (
	dseColdWarm = 256
	dseColdRate = 150
)

func (w *dseCold) prepare(seconds int) {
	w.inputs = newPool(func(i int) service.DSERequest { return dseColdJob(w.seed, i) }, dseColdWarm, dseColdRate*seconds)
}

// dseColdChecked is how many answers are re-computed with the serial
// scan after the measured phase.
const dseColdChecked = 3

// dseAnswer is one dse-cold operation's outcome.
type dseAnswer struct {
	req       service.DSERequest
	resp      service.DSEResponse
	submitted time.Time
	stream    streamed
}

// setUp characterizes the eight built-in backends and runs warm-up
// jobs until both the result cache and the plan cache have evicted,
// that is, until they are at their size bound. Warm-up jobs take
// negative indices, so they never pre-compute a measured job.
func (w *dseCold) setUp(st *stack, cl *client, round int) error {
	var ch service.CharacterizeResponse
	if err := cl.call("POST", "/api/v1/characterize", service.CharacterizeRequest{Archs: builtinBackends}, &ch); err != nil {
		return fmt.Errorf("characterize: %w", err)
	}
	svc := st.daemon.svc
	for i := 0; svc.CacheStats().Evictions == 0 || svc.PlanCacheStats().Evictions == 0; i++ {
		if i > 2000 {
			return fmt.Errorf("caches not at their bound after %d warm-up jobs", i)
		}
		if _, err := runDSEJob(cl, w.inputs.at(-1-i)); err != nil {
			return fmt.Errorf("warm-up job %d: %w", i, err)
		}
	}
	return nil
}

func (w *dseCold) do(cl *client, i int) (any, error) {
	return runDSEJob(cl, w.inputs.at(i))
}

// runDSEJob runs one v2 DSE job to its terminal event and reads the
// result.
func runDSEJob(cl *client, req service.DSERequest) (*dseAnswer, error) {
	a := &dseAnswer{req: req, submitted: time.Now()}
	id, s, err := runJob(cl, service.JobRequest{Kind: string(service.JobDSE), DSE: &req})
	if err != nil {
		return nil, err
	}
	a.stream = s
	var view service.JobView
	if err := cl.call("GET", "/api/v2/jobs/"+id, nil, &view); err != nil {
		return nil, fmt.Errorf("result: %w", err)
	}
	if err := json.Unmarshal(view.Result, &a.resp); err != nil {
		return nil, fmt.Errorf("decode result: %w", err)
	}
	return a, nil
}

func (a *dseAnswer) network() cnn.Network {
	net := cnn.Network{Name: "custom"}
	for _, l := range a.req.Layers {
		net.Layers = append(net.Layers, layerFromJSON(l))
	}
	return net
}

func (w *dseCold) check(recs []record) map[int]error {
	bad := map[int]error{}
	var ok []int
	for i, r := range recs {
		if r.err != nil {
			continue
		}
		a := r.resp.(*dseAnswer)
		if err := checkDSE(a.resp.Result, a.network().Layers); err != nil {
			bad[i] = err
			continue
		}
		ok = append(ok, i)
	}
	var pr profiles
	for _, k := range sampleIndices(w.seed, saltDSECold, len(ok), dseColdChecked) {
		i := ok[k]
		a := recs[i].resp.(*dseAnswer)
		b, found := dram.Lookup(a.req.Arch)
		if !found {
			bad[i] = fmt.Errorf("backend %s not registered", a.req.Arch)
			continue
		}
		if err := sameAsSerial(&pr, b, a.network(), core.MinimizeEDP, a.resp.Result); err != nil {
			bad[i] = err
		}
	}
	return bad
}

// replayPlan replays the first three jobs through the layers; the job
// layer is measured on the live streams.
func (w *dseCold) replayPlan(recs []record) replayPlan {
	var p replayPlan
	for _, r := range recs {
		if r.err != nil || len(p.dse) == 3 {
			continue
		}
		a := r.resp.(*dseAnswer)
		b, _ := dram.Lookup(a.req.Arch)
		p.dse = append(p.dse, dseItem{backend: b, net: a.network(), obj: core.MinimizeEDP})
	}
	return p
}
