// Command perfbench is the repository benchmark. It builds the drmap
// daemon stack in its own process, serves it on loopback, drives one
// named workload from a closed-loop client over one keep-alive
// connection, checks every answer, and prints the metrics as one JSON
// object on the last line of standard output. See README.md.
//
// Usage:
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//	perfbench --workload NAME --repeat K [--seconds S] [--trace 0|1]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

var stderr io.Writer = os.Stderr

// procs is the GOMAXPROCS every run uses. The reference VM reports two
// vCPUs, but its host gives it about one CPU of time: with two Ps the
// hypervisor took 18–35% of all CPU ticks as steal and wall-clock
// figures swung with the host's load. With one P steal fell to 5–12%
// and the same requests ran ~1.5× faster (see README.md).
const procs = 1

// workloads builds each named workload for a seed.
var workloads = map[string]func(seed int64) workload{
	"dse-cold":   func(seed int64) workload { return &dseCold{seed: seed} },
	"batch-warm": func(seed int64) workload { return &batchWarm{seed: seed} },
	"simulate":   func(seed int64) workload { return &simulate{seed: seed} },
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 runs the traced replay and prints the per-layer metrics")
	repeat := fs.Int("repeat", 0, "run the workload this many times, with seeds --seed, --seed+1, ..., and print each metric's spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	runtime.GOMAXPROCS(procs)
	if *repeat > 0 {
		if err := repeatRuns(*name, *seed, *repeat, *seconds, *trace, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var res *result
	var err error
	if *trace == 1 {
		res, err = traced(*name, mk(*seed), *seed, *seconds)
	} else {
		res, err = endToEnd(mk(*seed), *seconds)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
