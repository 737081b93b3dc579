package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"

	"drmap/internal/accel"
	"drmap/internal/cnn"
	"drmap/internal/dram"
	"drmap/internal/report"
	"drmap/internal/service"
	"drmap/internal/tiling"
)

// The seeded input generators. Every input is a pure function of
// (seed, stream, index), so a run replays the same requests whatever
// order it asks for them in, and the traced run replays the untraced
// run's inputs exactly.

// Stream salts keep the generators of different workloads apart.
const (
	saltDSECold  = 0xd5ec01d
	saltBatch    = 0xba7c4
	saltSimulate = 0x5174
)

func rngFor(seed int64, salt, index uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), salt<<32^index))
}

// builtinBackends are the eight backends registered at start-up.
var builtinBackends = []string{"ddr3", "salp1", "salp2", "masa", "ddr4", "lpddr3", "lpddr4", "hbm2"}

// referenceLayers are the layers of the four built-in networks; the
// generators draw shapes around them.
var referenceLayers = func() []cnn.Layer {
	var out []cnn.Layer
	for _, n := range cnn.Networks() {
		out = append(out, n.Layers...)
	}
	return out
}()

// scaleDim scales a layer dimension by f, keeping it at least lo.
func scaleDim(v int, f float64, lo int) int {
	return max(lo, int(math.Round(float64(v)*f)))
}

// perturb draws a layer around ref: spatial extent and channel counts
// scaled by up to ±25%, kernel, stride and padding kept.
func perturb(r *rand.Rand, ref cnn.Layer, name string) cnn.Layer {
	f := func() float64 { return 0.75 + 0.5*r.Float64() }
	l := ref
	l.Name = name
	if l.Kind == cnn.Conv {
		l.H = scaleDim(ref.H, f(), 2)
		l.W = l.H
		if ref.W != ref.H {
			l.W = scaleDim(ref.W, f(), 2)
		}
	}
	l.J = scaleDim(ref.J, f(), 2)
	if ref.I > 4 {
		l.I = scaleDim(ref.I, f(), 2)
	}
	return l
}

// layerTilings counts the layer's buffer-fitting tilings: the size of
// its DSE grid column, and so of its count work.
func layerTilings(l cnn.Layer) int {
	return len(tiling.Enumerate(l, accel.TableII()))
}

// dseColdBand bounds a dse-cold network's total tiling count, so every
// job carries a similar amount of enumeration and count work.
var dseColdBand = [2]int{1200, 2000}

// dseColdJob is the i-th dse-cold request: a fresh custom network of
// 3-5 layers drawn around the reference layers, on one of the eight
// built-in backends, with all four schedules and all six Table I
// policies. Networks outside dseColdBand are redrawn from the same
// stream.
func dseColdJob(seed int64, i int) service.DSERequest {
	r := rngFor(seed, saltDSECold, uint64(int64(i)))
	for {
		n := 3 + r.IntN(3)
		layers := make([]service.LayerJSON, n)
		total := 0
		ok := true
		for k := range layers {
			ref := referenceLayers[r.IntN(len(referenceLayers))]
			l := perturb(r, ref, fmt.Sprintf("s%d-j%d-l%d", seed, i, k))
			t := layerTilings(l)
			if l.Validate() != nil || t == 0 {
				ok = false
				break
			}
			total += t
			layers[k] = layerJSON(l)
		}
		if !ok || total < dseColdBand[0] || total > dseColdBand[1] {
			continue
		}
		return service.DSERequest{
			Arch:      builtinBackends[r.IntN(len(builtinBackends))],
			Layers:    layers,
			Objective: "edp",
		}
	}
}

func layerJSON(l cnn.Layer) service.LayerJSON {
	kind := "conv"
	if l.Kind == cnn.FC {
		kind = "fc"
	}
	return service.LayerJSON{
		Name: l.Name, Kind: kind, H: l.H, W: l.W, J: l.J, I: l.I,
		P: l.P, Q: l.Q, Stride: l.Stride, Pad: l.Pad,
	}
}

func layerFromJSON(l service.LayerJSON) cnn.Layer {
	kind := cnn.Conv
	if l.Kind == "fc" {
		kind = cnn.FC
	}
	return cnn.Layer{
		Name: l.Name, Kind: kind, H: l.H, W: l.W, J: l.J, I: l.I,
		P: l.P, Q: l.Q, Stride: l.Stride, Pad: l.Pad,
	}
}

// batchNetworks is the network mix of every batch-warm request.
var batchNetworks = []string{"alexnet", "lenet5", "resnet18", "vgg16"}

// batchVariants is how many seeded backend variants batch-warm
// registers. With eight items per batch, one cycle through the variants
// touches 8 x 40 = 320 distinct results (plus 40 profiles and 4 grids
// on a standalone daemon), more than the default 256-entry result
// cache holds, so every measured item misses it.
const batchVariants = 40

// paperBackends are the bases of the variants: the paper's four
// architectures on one 2Gb x8 die, so every variant shares one count
// signature and the count plans.
var paperBackends = []string{"ddr3", "salp1", "salp2", "masa"}

// variant returns seeded variant k for set-up round round: a paper
// architecture with its currents and I/O energies scaled by seeded
// factors. IDs and names carry the round, because the backend registry
// is process-wide and every set-up round registers its own set.
func variant(seed int64, round, k int) dram.Backend {
	r := rngFor(seed, saltBatch, uint64(1<<20+k))
	base, ok := dram.Lookup(paperBackends[k%len(paperBackends)])
	if !ok {
		panic("perfbench: paper backend missing from the registry")
	}
	cur := 0.85 + 0.3*r.Float64()
	io := 0.85 + 0.3*r.Float64()
	p := &base.Config.Power
	for _, v := range []*float64{&p.IDD0, &p.IDD2N, &p.IDD2P, &p.IDD3N, &p.IDD3P, &p.IDD4R, &p.IDD4W, &p.IDD5B} {
		*v *= cur
	}
	p.ReadIOPicoJPerBit *= io
	p.WriteIOPicoJPerBit *= io
	id := fmt.Sprintf("bw%d-%s-%02d", round, base.ID, k)
	return dram.Backend{ID: id, Name: id, Config: base.Config}
}

// batchOrder is the seeded order in which the measured batches visit
// the variants: a permutation, cycled.
func batchOrder(seed int64) []int {
	return rngFor(seed, saltBatch, 0).Perm(batchVariants)
}

// batchItems is the b-th measured batch: every network under the
// energy and the delay objective, for one variant, in a seeded order.
func batchItems(seed int64, order []int, ids []string, b int) service.BatchRequest {
	v := order[b%len(order)]
	var jobs []service.DSERequest
	for _, obj := range []string{"energy", "delay"} {
		for _, net := range batchNetworks {
			jobs = append(jobs, service.DSERequest{Arch: ids[v], Network: net, Objective: obj})
		}
	}
	r := rngFor(seed, saltBatch, uint64(2<<20+b))
	r.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return service.BatchRequest{Jobs: jobs}
}

// simulateBand bounds a simulate request's distinct-stream burst count,
// so every request carries a similar amount of controller work.
var simulateBand = [2]int64{1500, 3000}

var (
	simSchedules = []string{"ifms", "wghs", "ofms", "adaptive"}
	simSchedVals = []tiling.Schedule{tiling.IfmsReuse, tiling.WghsReuse, tiling.OfmsReuse, tiling.AdaptiveReuse}
	simScheduler = []string{"fcfs", "frfcfs"}
	simPages     = []string{"open", "closed"}
	simEngines   = []string{"serial", "parallel"}
)

// simulateJob is the i-th simulate request: a seeded layer shape with a
// seeded buffer-fitting tiling, schedule, backend, policy 0-6,
// scheduler, page policy and engine, redrawn until its burst count
// lies in simulateBand.
func simulateJob(seed int64, i int) service.SimulateRequest {
	r := rngFor(seed, saltSimulate, uint64(i))
	for {
		ref := referenceLayers[r.IntN(len(referenceLayers))]
		l := perturb(r, ref, fmt.Sprintf("s%d-q%d", seed, i))
		if l.Validate() != nil {
			continue
		}
		tl, ok := drawTiling(r, l)
		if !ok {
			continue
		}
		si := r.IntN(len(simSchedules))
		arch := builtinBackends[r.IntN(len(builtinBackends))]
		b, _ := dram.Lookup(arch)
		if n := streamBursts(l, tl, simSchedVals[si], b.Config.Geometry.AccessBytes()); n < simulateBand[0] || n > simulateBand[1] {
			continue
		}
		return service.SimulateRequest{
			Arch:       arch,
			Policy:     r.IntN(7),
			Layer:      layerJSON(l),
			Tiling:     report.TilingToJSON(tl),
			Schedule:   simSchedules[si],
			Scheduler:  simScheduler[r.IntN(2)],
			PagePolicy: simPages[r.IntN(2)],
			Engine:     simEngines[r.IntN(2)],
		}
	}
}

// drawTiling draws a divisor-aligned tiling of l that fits the Table II
// buffers: divisors drawn uniformly per dimension, redrawn until the
// tiles fit, without enumerating the layer's whole tiling space. It
// gives up after 64 draws.
func drawTiling(r *rand.Rand, l cnn.Layer) (tiling.Tiling, bool) {
	dh, dw, dj, di := divisors(l.H), divisors(l.W), divisors(l.J), divisors(l.I)
	pick := func(ds []int) int { return ds[r.IntN(len(ds))] }
	for k := 0; k < 64; k++ {
		t := tiling.Tiling{Th: pick(dh), Tw: pick(dw), Tj: pick(dj), Ti: pick(di)}
		if t.Fits(l, accel.TableII()) {
			return t, true
		}
	}
	return tiling.Tiling{}, false
}

func divisors(n int) []int {
	var ds []int
	for d := 1; d <= n; d++ {
		if n%d == 0 {
			ds = append(ds, d)
		}
	}
	return ds
}

// streamBursts counts the bursts of a layer's distinct tile streams at
// one byte per element: the requests one simulation issues.
func streamBursts(l cnn.Layer, tl tiling.Tiling, s tiling.Schedule, accessBytes int) int64 {
	var n int64
	for _, g := range tiling.TileGroups(l, tl, s, 1) {
		n += (g.Elems + int64(accessBytes) - 1) / int64(accessBytes)
	}
	return n
}

// pool holds a workload's inputs generated ahead of the timed phases,
// so input generation - the tiling enumeration behind the work bands
// costs up to a few milliseconds per input - is neither in a request's
// latency nor in the measured CPU. A measured index past the pool
// reuses the pool from its start: by then every cache has evicted those
// inputs, so they cost the system what fresh ones would.
type pool[T any] struct {
	gen  func(i int) T
	warm []T // indices -1, -2, ...
	meas []T // indices 0, 1, ...
}

// newPool generates warm warm-up and meas measured inputs over two
// goroutines; every input is a pure function of its index, so the split
// does not change them.
func newPool[T any](gen func(i int) T, warm, meas int) *pool[T] {
	p := &pool[T]{gen: gen, warm: make([]T, warm), meas: make([]T, meas)}
	var wg sync.WaitGroup
	for part := 0; part < 2; part++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := part; k < warm+meas; k += 2 {
				if k < warm {
					p.warm[k] = gen(-1 - k)
				} else {
					p.meas[k-warm] = gen(k - warm)
				}
			}
		}()
	}
	wg.Wait()
	return p
}

func (p *pool[T]) at(i int) T {
	switch {
	case i >= 0:
		return p.meas[i%len(p.meas)]
	case -1-i < len(p.warm):
		return p.warm[-1-i]
	}
	return p.gen(i)
}
