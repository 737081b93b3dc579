package main

import (
	"fmt"
	"os"
	"time"

	"drmap/internal/service"
)

// replayPlan is what the traced run replays of a workload's measured
// inputs: DSE inputs through the grid, count, price, reduce, encode and
// merge layers (their picks also through the simulate layers), layer
// simulations, and requests submitted again as v2 jobs for the job
// layer.
type replayPlan struct {
	dse  []dseItem
	sims []simItem
	jobs []service.JobRequest
}

// cacheSnap holds the daemon's cache and evaluation counters.
type cacheSnap struct {
	result, plan service.CacheStats
	evaluations  int64
}

func snapCaches(st *stack) cacheSnap {
	svc := st.daemon.svc
	return cacheSnap{result: svc.CacheStats(), plan: svc.PlanCacheStats(), evaluations: svc.Evaluations()}
}

// freshAnswers counts the results a set of answers computed rather
// than took from the result cache: each is one evaluation.
func freshAnswers(recs []record) int64 {
	var n int64
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		switch a := r.resp.(type) {
		case *dseAnswer:
			if !a.resp.Cached {
				n++
			}
		case *batchAnswer:
			for _, it := range a.resp.Results {
				if it.Result != nil && !it.Result.Cached {
					n++
				}
			}
		case *simAnswer:
			if !a.resp.Cached {
				n++
			}
		}
	}
	return n
}

// jobStats is the job layer seen from the client: submit to the first
// "running" event, and events per job.
type jobStats struct {
	queue  time.Duration
	events int
	jobs   int
}

func (j *jobStats) add(submitted time.Time, s streamed) {
	j.queue += s.running.Sub(submitted)
	j.events += s.events
	j.jobs++
}

// traced is the traced run. After the usual set-up it measures half
// the run untraced and half with the timing middleware and client
// spans on (the difference is the tracing overhead), then replays the
// traced phase's first inputs through each layer's public functions,
// writes the spans out, and returns the per-layer metrics.
func traced(name string, w workload, seed int64, seconds int) (*result, error) {
	w.prepare(seconds)
	live := &tracer{}
	sess, _, err := setUpAll(w, live.wrap)
	if err != nil {
		return nil, err
	}
	defer sess.close()
	half := time.Duration(seconds) * time.Second / 2

	plainRecs, _, _ := measure(w, sess.cl, half)
	plainLat, plainFailed, plainOK := tally(w, plainRecs)

	before := snapCaches(sess.st)
	sess.cl.tr = live
	live.on.Store(true)
	recs, u, _ := measure(w, sess.cl, half)
	live.on.Store(false)
	sess.cl.tr = nil
	after := snapCaches(sess.st)
	lat, failed, ok := tally(w, recs)
	if len(lat) == 0 || len(plainLat) == 0 {
		return nil, fmt.Errorf("no request completed in a traced half")
	}
	ops := float64(len(lat))

	replay := &tracer{}
	replay.on.Store(true)
	rp := &replayer{tr: replay}
	plan := w.replayPlan(recs)
	sims := plan.sims
	for i, it := range plan.dse {
		picks, err := rp.dse(it)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			sims = append(sims, picks...)
		}
	}
	for _, it := range sims {
		if err := rp.simulate(it); err != nil {
			return nil, err
		}
	}
	var jobs jobStats
	for _, r := range recs {
		if a, ok := r.resp.(*dseAnswer); ok && r.err == nil {
			jobs.add(a.submitted, a.stream)
		}
	}
	for _, req := range plan.jobs {
		submitted := time.Now()
		_, s, err := runJob(sess.cl, req)
		if err != nil {
			return nil, fmt.Errorf("replayed %s job: %w", req.Kind, err)
		}
		jobs.add(submitted, s)
	}
	shardDSE := plan.dse[:min(1, len(plan.dse))]
	shardSims := plan.sims[:min(4, len(plan.sims))]
	if err := miniCluster(replay, shardDSE, shardSims); err != nil {
		return nil, err
	}
	shardJobs := float64(len(shardDSE) + len(shardSims))

	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	for _, t := range []struct {
		tr   *tracer
		kind string
	}{{live, "live"}, {replay, "replay"}} {
		path, err := t.tr.writeOut(dir, fmt.Sprintf("perfbench-spans-%s-%d-%s.ndjson", name, seed, t.kind))
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(stderr, "perfbench: spans written to", path)
	}

	ls, rs := live.stats(), replay.stats()
	get := func(m map[string]*spanStats, k string) *spanStats {
		if s := m[k]; s != nil {
			return s
		}
		return &spanStats{}
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	per := func(x, n float64) float64 {
		if n == 0 {
			return 0
		}
		return x / n
	}
	n := rp.n
	cols, events := float64(n.columns), n.events
	shard := get(rs, "cluster.shard")
	chars := (after.evaluations - before.evaluations) - freshAnswers(recs)
	out := map[string]metric{
		"trace.overhead_pct":            {(median(lat) - median(plainLat)) / median(plainLat) * 100, "%"},
		"http.server_ms":                {per(ms(get(ls, "http.server").self), ops), "ms"},
		"http.client_ms":                {per(ms(get(ls, "http.client").self), ops), "ms"},
		"http.response_kb":              {per(float64(get(ls, "http.client").bytes)/1024, ops), "KiB"},
		"jobs.queue_ms":                 {per(ms(jobs.queue), float64(jobs.jobs)), "ms"},
		"jobs.stream_events":            {per(float64(jobs.events), float64(jobs.jobs)), "count"},
		"service.resultcache_hits":      {per(float64(after.result.Hits-before.result.Hits), ops), "1/req"},
		"service.resultcache_misses":    {per(float64(after.result.Misses-before.result.Misses), ops), "1/req"},
		"service.resultcache_evictions": {per(float64(after.result.Evictions-before.result.Evictions), ops), "1/req"},
		"service.plancache_hits":        {per(float64(after.plan.Hits-before.plan.Hits), ops), "1/req"},
		"service.plancache_misses":      {per(float64(after.plan.Misses-before.plan.Misses), ops), "1/req"},
		"service.plancache_mb":          {float64(after.plan.Bytes) / 1e6, "MB"},
		"profile.characterize_ms":       {per(ms(get(rs, "profile.characterize").total), float64(n.characterizations)), "ms"},
		"profile.characterizations":     {per(float64(chars), ops), "1/req"},
		"tiling.enumerate_ms":           {per(ms(get(rs, "tiling.enumerate").total), float64(n.networks)), "ms"},
		"tiling.tilings":                {per(float64(n.tilings), cols), "count"},
		"tiling.tile_groups":            {per(float64(n.tileGroups), cols), "count"},
		"core.count_ms":                 {per(ms(get(rs, "core.count").total), cols), "ms"},
		"core.count_allocs":             {per(float64(n.countAllocs), cols), "count"},
		"core.flatten_ms":               {per(ms(get(rs, "core.flatten").total), cols), "ms"},
		"core.price_us":                 {per(ms(get(rs, "core.price").total)*1000, cols), "us"},
		"core.price_cells":              {per(float64(n.cells), cols), "count"},
		"core.reduce_us":                {per(ms(get(rs, "core.reduce").total)*1000, float64(n.layers)), "us"},
		"report.encode_ms":              {per(ms(get(rs, "report.encode").total), float64(n.results)), "ms"},
		"mapping.addrgen_ns":            {per(float64(get(rs, "mapping.addrgen").total), float64(n.bursts)), "ns"},
		"sim.events":                    {per(float64(events[0]), float64(len(sims))), "count"},
		"sim.event_ns.serial":           {per(float64(get(rs, "sim.serial").total), float64(events[0])), "ns"},
		"sim.event_ns.parallel":         {per(float64(get(rs, "sim.parallel").total), float64(events[1])), "ns"},
		"memctrl.request_ns":            {per(float64(get(rs, "memctrl.run").total), float64(n.requests)), "ns"},
		"memctrl.commands":              {per(float64(n.commands), float64(n.requests)), "count"},
		"cluster.shards":                {per(float64(shard.n), shardJobs), "count"},
		"cluster.shard_ms":              {per(ms(shard.total), float64(shard.n)), "ms"},
		"cluster.shard_kb":              {per(float64(shard.bytes)/1024, float64(shard.n)), "KiB"},
		"cluster.merge_ms":              {per(ms(get(rs, "cluster.merge").total), float64(n.results)), "ms"},
		"cluster.shard_failures":        {float64(shard.fails), "count"},
		"go.gc_cycles":                  {per(float64(u.gcs), ops), "1/req"},
	}
	return &result{
		Correct:   ok && plainOK,
		Attempted: len(recs) + len(plainRecs),
		Failed:    failed + plainFailed,
		Metrics:   out,
	}, nil
}

// runJob submits one v2 job and follows its stream to the terminal
// event, the way drmap-dse -server follows a job; it returns the job's
// ID.
func runJob(cl *client, req service.JobRequest) (string, streamed, error) {
	var view service.JobView
	if err := cl.call("POST", "/api/v2/jobs", req, &view); err != nil {
		return "", streamed{}, fmt.Errorf("submit: %w", err)
	}
	s, err := cl.follow(view.ID)
	if err != nil {
		return view.ID, s, fmt.Errorf("stream %s: %w", view.ID, err)
	}
	if s.final != service.JobSucceeded {
		var v service.JobView
		_ = cl.call("GET", "/api/v2/jobs/"+view.ID, nil, &v) // only for the error text
		return view.ID, s, fmt.Errorf("job %s ended %s: %s", view.ID, s.final, v.Error)
	}
	return view.ID, s, nil
}
