package main

import (
	"fmt"
	"math"
	"sync"

	"drmap/internal/accel"
	"drmap/internal/cnn"
	"drmap/internal/core"
	"drmap/internal/dram"
	"drmap/internal/mapping"
	"drmap/internal/profile"
	"drmap/internal/report"
	"drmap/internal/tiling"
)

// The output checks. Each rests on a property the method must have or
// on a computation made apart from the serving path; none compares
// against stored output.

// relTol is the float rounding a sum or an ordering may differ by.
const relTol = 1e-9

func positive(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
		return fmt.Errorf("%s = %g, want finite and > 0", name, v)
	}
	return nil
}

func near(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

// notAbove reports a <= b within float rounding.
func notAbove(a, b float64) bool { return a <= b || near(a, b) }

// tileFits recomputes a tiling's three tile volumes from the layer
// geometry and checks each against its Table II buffer (one byte per
// element).
func tileFits(l cnn.Layer, t report.TilingJSON) error {
	cfg := accel.TableII()
	if t.Th < 1 || t.Tw < 1 || t.Tj < 1 || t.Ti < 1 || t.Th > l.H || t.Tw > l.W || t.Tj > l.J || t.Ti > l.I {
		return fmt.Errorf("tiling %+v outside layer %s", t, l.Name)
	}
	span := func(out, kernel int) int64 { return int64((out-1)*l.Stride + kernel) }
	vols := [3]struct {
		name      string
		elems     int64
		bufferCap int
	}{
		{"ifms", span(t.Th, l.P) * span(t.Tw, l.Q) * int64(t.Ti), cfg.IfmBufBytes},
		{"weights", int64(l.P) * int64(l.Q) * int64(t.Ti) * int64(t.Tj), cfg.WgtBufBytes},
		{"ofms", int64(t.Th) * int64(t.Tw) * int64(t.Tj), cfg.OfmBufBytes},
	}
	for _, v := range vols {
		if v.elems*int64(cfg.BytesPerElement) > int64(v.bufferCap) {
			return fmt.Errorf("layer %s: %s tile of %d bytes exceeds the %d-byte buffer", l.Name, v.name, v.elems, v.bufferCap)
		}
	}
	return nil
}

var scheduleNames = map[string]bool{}

func init() {
	for _, s := range tiling.Schedules {
		scheduleNames[s.String()] = true
	}
}

// checkDSE validates one DSE answer against its layers: every cost
// finite and positive, network totals equal to the sum of the layers,
// every pick a fitting tiling under a requested schedule and Table I
// policy.
func checkDSE(d report.DSEJSON, layers []cnn.Layer) error {
	if len(d.Layers) != len(layers) {
		return fmt.Errorf("%d layers in the answer, %d requested", len(d.Layers), len(layers))
	}
	var edp, energy float64
	for i, lr := range d.Layers {
		l := layers[i]
		if lr.Layer != l.Name {
			return fmt.Errorf("layer %d is %q, want %q", i, lr.Layer, l.Name)
		}
		for _, e := range []error{
			positive(l.Name+" cycles", lr.Cycles), positive(l.Name+" energy", lr.EnergyJ),
			positive(l.Name+" seconds", lr.Seconds), positive(l.Name+" EDP", lr.MinEDPJs),
		} {
			if e != nil {
				return e
			}
		}
		if err := tileFits(l, lr.Tiling); err != nil {
			return err
		}
		if lr.Mapping.ID < 1 || lr.Mapping.ID > 6 {
			return fmt.Errorf("layer %s: picked policy %d, requested 1-6", l.Name, lr.Mapping.ID)
		}
		if !scheduleNames[lr.Schedule] {
			return fmt.Errorf("layer %s: picked schedule %q, not requested", l.Name, lr.Schedule)
		}
		edp += lr.MinEDPJs
		energy += lr.EnergyJ
	}
	if !near(d.TotalEDPJs, edp) || !near(d.TotalEnergyJ, energy) {
		return fmt.Errorf("totals EDP %g energy %g, layers sum to %g and %g", d.TotalEDPJs, d.TotalEnergyJ, edp, energy)
	}
	return nil
}

// profiles characterizes backends for the serial re-computations and
// the traced replay, once per backend.
type profiles struct {
	mu sync.Mutex
	m  map[string]*profile.Profile
}

// has reports whether the backend with this ID is characterized.
func (p *profiles) has(id string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.m[id]
	return ok
}

func (p *profiles) of(b dram.Backend) (*profile.Profile, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pr, ok := p.m[b.ID]; ok {
		return pr, nil
	}
	pr, err := profile.CharacterizeBackend(b)
	if err != nil {
		return nil, err
	}
	if p.m == nil {
		p.m = map[string]*profile.Profile{}
	}
	p.m[b.ID] = pr
	return pr, nil
}

// sameAsSerial re-runs the DSE with the serial core.RunDSEObjective
// scan in this process and checks that the served answer picked the
// same design point at the same cost for every layer.
func sameAsSerial(pr *profiles, b dram.Backend, net cnn.Network, obj core.Objective, d report.DSEJSON) error {
	p, err := pr.of(b)
	if err != nil {
		return err
	}
	ev, err := core.NewEvaluator(p, accel.TableII(), 1)
	if err != nil {
		return err
	}
	res, err := core.RunDSEObjective(net, ev, tiling.Schedules, mapping.TableI(), obj)
	if err != nil {
		return err
	}
	if len(res.Layers) != len(d.Layers) {
		return fmt.Errorf("serial scan has %d layers, answer %d", len(res.Layers), len(d.Layers))
	}
	for i, lr := range res.Layers {
		got := d.Layers[i]
		if got.Tiling != report.TilingToJSON(lr.Best.Tiling) || got.Schedule != lr.Best.Schedule.String() ||
			got.Mapping.ID != lr.Best.Policy.ID || got.Cycles != lr.Cost.Cycles || got.EnergyJ != lr.Cost.Energy ||
			got.MinEDPJs != lr.MinEDP {
			return fmt.Errorf("layer %s: served pick %+v differs from the serial scan's %v %v policy %d cost %+v",
				got.Layer, got, lr.Best.Tiling, lr.Best.Schedule, lr.Best.Policy.ID, lr.Cost)
		}
	}
	return nil
}

// objectivePicks checks, layer by layer, that each objective's pick is
// the best of the three picks under its own objective: the EDP pick
// has the least EDP, the energy pick the least energy, the delay pick
// the least delay.
func objectivePicks(edp, energy, delay report.DSEJSON) error {
	if len(edp.Layers) != len(energy.Layers) || len(edp.Layers) != len(delay.Layers) {
		return fmt.Errorf("objective answers differ in layer count")
	}
	for i := range edp.Layers {
		e, n, d := edp.Layers[i], energy.Layers[i], delay.Layers[i]
		if !notAbove(e.MinEDPJs, n.MinEDPJs) || !notAbove(e.MinEDPJs, d.MinEDPJs) {
			return fmt.Errorf("layer %s: EDP pick %g above the energy (%g) or delay (%g) pick's EDP", e.Layer, e.MinEDPJs, n.MinEDPJs, d.MinEDPJs)
		}
		if !notAbove(n.EnergyJ, e.EnergyJ) || !notAbove(n.EnergyJ, d.EnergyJ) {
			return fmt.Errorf("layer %s: energy pick %g J above the EDP (%g) or delay (%g) pick's", e.Layer, n.EnergyJ, e.EnergyJ, d.EnergyJ)
		}
		if !notAbove(d.Seconds, e.Seconds) || !notAbove(d.Seconds, n.Seconds) {
			return fmt.Errorf("layer %s: delay pick %g s above the EDP (%g) or energy (%g) pick's", e.Layer, d.Seconds, e.Seconds, n.Seconds)
		}
	}
	return nil
}

// busLowerBound is the fewest cycles any schedule can simulate a layer
// in: every weight must be read and every output written at least once,
// each burst holds the bus for tBL cycles, and the channels share the
// work at best evenly.
func busLowerBound(l cnn.Layer, cfg dram.Config) float64 {
	bytes := float64(l.P*l.Q*l.I*l.J + l.H*l.W*l.J) // weights + outputs, one byte per element
	bursts := math.Ceil(bytes / float64(cfg.Geometry.AccessBytes()))
	return bursts * float64(cfg.Timing.TBL) / float64(cfg.Geometry.Channels)
}

// sampleIndices picks k seeded indices of n for the expensive checks.
func sampleIndices(seed int64, salt uint64, n, k int) []int {
	if n <= k {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	return rngFor(seed, salt, 1<<40).Perm(n)[:k]
}
