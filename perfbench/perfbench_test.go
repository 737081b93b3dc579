package main

import (
	"context"
	"math"
	"reflect"
	"testing"

	"drmap/internal/accel"
	"drmap/internal/cnn"
	"drmap/internal/core"
	"drmap/internal/dram"
	"drmap/internal/mapping"
	"drmap/internal/report"
	"drmap/internal/service"
	"drmap/internal/tiling"
)

func TestInputsFollowTheSeed(t *testing.T) {
	for _, tc := range []struct {
		name string
		gen  func(seed int64) any
	}{
		{"dse-cold", func(seed int64) any { return []any{dseColdJob(seed, 0), dseColdJob(seed, 7), dseColdJob(seed, -3)} }},
		{"simulate", func(seed int64) any { return []any{simulateJob(seed, 0), simulateJob(seed, 11), simulateJob(seed, -2)} }},
		{"batch", func(seed int64) any {
			order := batchOrder(seed)
			ids := make([]string, batchVariants)
			for k := range ids {
				ids[k] = variant(seed, 0, k).ID
			}
			return []any{order, batchItems(seed, order, ids, 3), variant(seed, 0, 5).Config}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tc.gen(42), tc.gen(42)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed 42 gave different inputs:\n%v\n%v", a, b)
			}
			if c := tc.gen(43); reflect.DeepEqual(a, c) {
				t.Fatalf("seeds 42 and 43 gave the same inputs: %v", a)
			}
		})
	}
}

func TestInputsStayInTheirBands(t *testing.T) {
	for i := 0; i < 20; i++ {
		req := dseColdJob(5, i)
		total := 0
		for _, l := range req.Layers {
			total += layerTilings(layerFromJSON(l))
		}
		if len(req.Layers) < 3 || len(req.Layers) > 5 || total < dseColdBand[0] || total > dseColdBand[1] {
			t.Errorf("dse-cold job %d: %d layers, %d tilings", i, len(req.Layers), total)
		}
		sreq := simulateJob(5, i)
		b, _, spec, _, err := simSpec(sreq)
		if err != nil {
			t.Fatal(err)
		}
		if n := streamBursts(spec.Layer, spec.Tiling, spec.Schedule, b.Config.Geometry.AccessBytes()); n < simulateBand[0] || n > simulateBand[1] {
			t.Errorf("simulate request %d: %d bursts", i, n)
		}
		if !spec.Tiling.Fits(spec.Layer, accel.TableII()) {
			t.Errorf("simulate request %d: tiling %v does not fit", i, spec.Tiling)
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs, 90); err == nil {
		t.Fatal("p90 of 99 samples accepted")
	}
	xs = append(xs, 99)
	p, err := percentile(xs, 90)
	if err != nil || math.Abs(p-89.1) > 1e-9 {
		t.Fatalf("p90 of 0..99 = %v, %v; want 89.1", p, err)
	}
	if m := median(xs[:3]); m != 1 {
		t.Fatalf("median of 0,1,2 = %v", m)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

// servedLeNet is a real answer to check against: LeNet-5 on DDR3
// under obj, computed by the serial scan.
func servedLeNet(t *testing.T, obj core.Objective) report.DSEJSON {
	t.Helper()
	b, _ := dram.Lookup("ddr3")
	var pr profiles
	p, err := pr.of(b)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := core.NewEvaluator(p, accel.TableII(), 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunDSEObjective(cnn.LeNet5(), ev, tiling.Schedules, mapping.TableI(), obj)
	if err != nil {
		t.Fatal(err)
	}
	return report.DSEResultJSON(res, b.Config.Timing)
}

func TestDSEChecksRejectPlantedViolations(t *testing.T) {
	layers := cnn.LeNet5().Layers
	good := servedLeNet(t, core.MinimizeEDP)
	if err := checkDSE(good, layers); err != nil {
		t.Fatalf("valid answer rejected: %v", err)
	}
	plant := func(f func(d *report.DSEJSON)) report.DSEJSON {
		d := good
		d.Layers = append([]report.DSELayerJSON(nil), good.Layers...)
		f(&d)
		return d
	}
	for name, bad := range map[string]report.DSEJSON{
		"zero energy":      plant(func(d *report.DSEJSON) { d.Layers[1].EnergyJ = 0 }),
		"total not a sum":  plant(func(d *report.DSEJSON) { d.TotalEnergyJ *= 1.01 }),
		"tiling off layer": plant(func(d *report.DSEJSON) { d.Layers[0].Tiling.Th = 29 }),
		"policy 0":         plant(func(d *report.DSEJSON) { d.Layers[2].Mapping.ID = 0 }),
		"unknown schedule": plant(func(d *report.DSEJSON) { d.Layers[2].Schedule = "none" }),
		"missing layer":    plant(func(d *report.DSEJSON) { d.Layers = d.Layers[1:] }),
	} {
		if err := checkDSE(bad, layers); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Every LeNet-5 tile fits, so plant the buffer overflow on VGG-16.
	if err := tileFits(cnn.VGG16().Layers[1], report.TilingJSON{Th: 224, Tw: 224, Tj: 64, Ti: 64}); err == nil {
		t.Error("a 224x224x64 tile fits a 64 KiB buffer")
	}

	b, _ := dram.Lookup("ddr3")
	var pr profiles
	if err := sameAsSerial(&pr, b, cnn.LeNet5(), core.MinimizeEDP, good); err != nil {
		t.Fatalf("serial re-computation rejects the serial answer: %v", err)
	}
	off := plant(func(d *report.DSEJSON) { d.Layers[3].Cycles++ })
	if err := sameAsSerial(&pr, b, cnn.LeNet5(), core.MinimizeEDP, off); err == nil {
		t.Error("a cost one cycle off passed the serial comparison")
	}
}

func TestObjectiveOrderRejectsPlantedViolations(t *testing.T) {
	edp, energy, delay := servedLeNet(t, core.MinimizeEDP), servedLeNet(t, core.MinimizeEnergy), servedLeNet(t, core.MinimizeDelay)
	if err := objectivePicks(edp, energy, delay); err != nil {
		t.Fatalf("valid picks rejected: %v", err)
	}
	worse := func(d report.DSEJSON, f func(l *report.DSELayerJSON)) report.DSEJSON {
		d.Layers = append([]report.DSELayerJSON(nil), d.Layers...)
		f(&d.Layers[0])
		return d
	}
	if objectivePicks(worse(edp, func(l *report.DSELayerJSON) { l.MinEDPJs = energy.Layers[0].MinEDPJs * 2 }), energy, delay) == nil {
		t.Error("an EDP pick worse than the energy pick's EDP passed")
	}
	if objectivePicks(edp, worse(energy, func(l *report.DSELayerJSON) { l.EnergyJ = edp.Layers[0].EnergyJ * 2 }), delay) == nil {
		t.Error("an energy pick with more energy than the EDP pick passed")
	}
	if objectivePicks(edp, energy, worse(delay, func(l *report.DSELayerJSON) { l.Seconds = edp.Layers[0].Seconds * 2 })) == nil {
		t.Error("a delay pick slower than the EDP pick passed")
	}
}

func TestSimulateChecksRejectPlantedViolations(t *testing.T) {
	req := simulateJob(9, 0)
	b, pol, spec, opt, err := simSpec(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.SimulateNetwork(context.Background(), b.Config, pol, []core.LayerSpec{spec},
		core.SimOptions{Controller: opt, Parallel: req.Engine == "parallel", BytesPerElement: 1})
	if err != nil {
		t.Fatal(err)
	}
	good := &simAnswer{req: req, resp: service.SimulateResponse{Cost: report.LayerEDPToJSON(res[0].Cost, b.Config.Timing)}}
	w := &simulate{seed: 9}
	if bad := w.check([]record{{resp: good}}); len(bad) != 0 {
		t.Fatalf("valid answer rejected: %v", bad)
	}
	below := *good
	below.resp.Cost.Cycles = busLowerBound(spec.Layer, b.Config) / 2
	off := *good
	off.resp.Cost.Cycles++
	nan := *good
	nan.resp.Cost.EnergyJ = -1
	for name, a := range map[string]*simAnswer{"below the bus bound": &below, "one cycle off the other engine": &off, "negative energy": &nan} {
		if bad := w.check([]record{{resp: a}}); len(bad) != 1 {
			t.Errorf("%s: accepted", name)
		}
	}
}
