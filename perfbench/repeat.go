package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchSpec is the part of BENCHMARK.json the repeat mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// repeatRuns runs one workload k times, each in its own process with
// seeds first, first+1, ..., and prints each metric's median, quartiles and spread
// (the inter-quartile distance as a share of the median) against its
// bound in BENCHMARK.json, when one is found in the working directory.
func repeatRuns(name string, first int64, k, seconds, trace int, stdout io.Writer) error {
	if k < 2 {
		return fmt.Errorf("--repeat needs at least 2 runs")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	if data, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var spec benchSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range spec.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	values := map[string][]float64{}
	units := map[string]string{}
	failed := 0
	for seed := first; seed < first+int64(k); seed++ {
		var out bytes.Buffer
		cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = &out, stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: outputs incorrect", seed)
		}
		failed += res.Failed
		fmt.Fprintf(stdout, "seed %d: %s\n", seed, lines[len(lines)-1])
		for n, m := range res.Metrics {
			values[n] = append(values[n], m.Value)
			units[n] = m.Unit
		}
	}
	var names []string
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%s: %d runs of %ds, %d failed operations\n", name, k, seconds, failed)
	fmt.Fprintf(stdout, "%-22s %-6s %12s %12s %12s %8s %8s\n", "metric", "unit", "q1", "median", "q3", "spread", "bound")
	for _, n := range names {
		q1, q2, q3 := quartiles(values[n])
		spread := (q3 - q1) / q2
		bound := "-"
		if b, ok := bounds[n]; ok {
			bound = fmt.Sprintf("%.3f", b)
			if spread > b/3 {
				bound += " !"
			}
		}
		fmt.Fprintf(stdout, "%-22s %-6s %12.4f %12.4f %12.4f %8.4f %8s\n", n, units[n], q1, q2, q3, spread, bound)
	}
	return nil
}
