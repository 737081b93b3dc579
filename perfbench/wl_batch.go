package main

import (
	"fmt"
	"strings"

	"drmap/internal/cnn"
	"drmap/internal/core"
	"drmap/internal/dram"
	"drmap/internal/report"
	"drmap/internal/service"
)

// batchWarm sends v1 /api/v1/batch requests over seeded variants of
// the paper's four architectures, all on networks whose count plans
// the set-up has built: the warm reprice path.
type batchWarm struct {
	seed int64

	order    []int
	next     int // the stream position of the next batch sent
	backends []dram.Backend
	ids      []string
	// edp holds the set-up's EDP-objective answer per (variant, network),
	// the reference the measured energy and delay picks are checked
	// against.
	edp map[string]report.DSEJSON
}

// prepare has nothing to generate ahead: a batch is a shuffle of eight
// items.
func (w *batchWarm) prepare(int) {}

func edpKey(arch, network string) string { return arch + "/" + network }

// setUp registers the round's variants, characterizes them, counts the
// four networks once under the EDP objective for every variant (one
// count per column: the variants share a count signature, so all but
// the first reprice), and then sends measured-style batches until the
// result cache evicts.
func (w *batchWarm) setUp(st *stack, cl *client, round int) error {
	w.order = batchOrder(w.seed)
	w.next = 0
	w.backends = w.backends[:0]
	w.ids = w.ids[:0]
	for k := 0; k < batchVariants; k++ {
		b := variant(w.seed, round, k)
		if err := dram.Register(b); err != nil {
			return err
		}
		w.backends = append(w.backends, b)
		w.ids = append(w.ids, b.ID)
	}
	var ch service.CharacterizeResponse
	if err := cl.call("POST", "/api/v1/characterize", service.CharacterizeRequest{Archs: w.ids}, &ch); err != nil {
		return fmt.Errorf("characterize: %w", err)
	}
	w.edp = map[string]report.DSEJSON{}
	var jobs []service.DSERequest
	for _, id := range w.ids {
		for _, net := range batchNetworks {
			jobs = append(jobs, service.DSERequest{Arch: id, Network: net, Objective: "edp"})
		}
	}
	for start := 0; start < len(jobs); start += 8 {
		var resp service.BatchResponse
		if err := cl.call("POST", "/api/v1/batch", service.BatchRequest{Jobs: jobs[start:min(start+8, len(jobs))]}, &resp); err != nil {
			return fmt.Errorf("edp batch: %w", err)
		}
		for k, it := range resp.Results {
			if it.Error != "" {
				return fmt.Errorf("edp item: %s", it.Error)
			}
			j := jobs[start+k]
			w.edp[edpKey(j.Arch, j.Network)] = it.Result.Result
		}
	}
	for b := 0; st.daemon.svc.CacheStats().Evictions == 0; b++ {
		if b >= 4*batchVariants {
			return fmt.Errorf("result cache not at its bound after %d warm-up batches", b)
		}
		if _, err := w.send(cl); err != nil {
			return fmt.Errorf("warm-up batch %d: %w", b, err)
		}
	}
	return nil
}

func mustNetwork(name string) cnn.Network {
	for _, n := range cnn.Networks() {
		if strings.EqualFold(strings.ReplaceAll(n.Name, "-", ""), name) {
			return n
		}
	}
	panic("perfbench: unknown network " + name)
}

// batchAnswer is one batch operation's outcome.
type batchAnswer struct {
	req  service.BatchRequest
	resp service.BatchResponse
}

// send posts the next batch of the seeded stream. Warm-up and the
// measured phase continue one stream, so a measured batch repeats
// the items of the batch batchVariants positions before it, which the
// result cache has evicted by then.
func (w *batchWarm) send(cl *client) (*batchAnswer, error) {
	a := &batchAnswer{req: batchItems(w.seed, w.order, w.ids, w.next)}
	w.next++
	if err := cl.call("POST", "/api/v1/batch", a.req, &a.resp); err != nil {
		return nil, err
	}
	for _, it := range a.resp.Results {
		if it.Error != "" {
			return nil, fmt.Errorf("item %d: %s", it.Index, it.Error)
		}
	}
	return a, nil
}

func (w *batchWarm) do(cl *client, _ int) (any, error) {
	return w.send(cl)
}

func (w *batchWarm) backend(id string) dram.Backend {
	for _, b := range w.backends {
		if b.ID == id {
			return b
		}
	}
	panic("perfbench: unknown variant " + id)
}

func (w *batchWarm) check(recs []record) map[int]error {
	bad := map[int]error{}
	for i, r := range recs {
		if r.err != nil {
			continue
		}
		if err := w.checkBatch(r.resp.(*batchAnswer)); err != nil {
			bad[i] = err
		}
	}
	return bad
}

// checkBatch validates every item of one batch and, per network, the
// objective ordering of its energy, delay and EDP picks.
func (w *batchWarm) checkBatch(a *batchAnswer) error {
	if len(a.resp.Results) != len(a.req.Jobs) {
		return fmt.Errorf("%d results for %d jobs", len(a.resp.Results), len(a.req.Jobs))
	}
	picks := map[string]report.DSEJSON{}
	for k, job := range a.req.Jobs {
		res := a.resp.Results[k].Result
		if res == nil {
			return fmt.Errorf("item %d has no result", k)
		}
		if err := checkDSE(res.Result, mustNetwork(job.Network).Layers); err != nil {
			return fmt.Errorf("item %d (%s %s): %w", k, job.Arch, job.Network, err)
		}
		picks[job.Network+"/"+job.Objective] = res.Result
	}
	arch := a.req.Jobs[0].Arch
	for _, net := range batchNetworks {
		edp, ok := w.edp[edpKey(arch, net)]
		if !ok {
			return fmt.Errorf("no EDP reference for %s %s", arch, net)
		}
		if err := objectivePicks(edp, picks[net+"/energy"], picks[net+"/delay"]); err != nil {
			return fmt.Errorf("%s %s: %w", arch, net, err)
		}
	}
	return nil
}

// replayPlan replays the first batch's energy items - each network once
// - through the layers, and submits the first two batches again as v2
// batch jobs.
func (w *batchWarm) replayPlan(recs []record) replayPlan {
	var p replayPlan
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		a := r.resp.(*batchAnswer)
		if len(p.jobs) == 0 {
			for _, job := range a.req.Jobs {
				if job.Objective == "energy" {
					p.dse = append(p.dse, dseItem{backend: w.backend(job.Arch), net: mustNetwork(job.Network), obj: core.MinimizeEnergy})
				}
			}
		}
		req := a.req
		p.jobs = append(p.jobs, service.JobRequest{Kind: string(service.JobBatch), Batch: &req})
		if len(p.jobs) == 2 {
			break
		}
	}
	return p
}
