package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// setupRounds is how many times a run builds and warms its stack;
// setup_s is the median, and the measured phase uses the last stack.
const setupRounds = 3

// workload is one named traffic mix.
type workload interface {
	// prepare generates the inputs of a run with a measured phase of
	// the given length, before anything is timed.
	prepare(seconds int)
	// setUp registers what the workload needs on a freshly built stack
	// and warms it until its caches are at their bound. round numbers
	// the set-ups of one process.
	setUp(st *stack, cl *client, round int) error
	// do sends the i-th measured request and returns its decoded answer.
	do(cl *client, i int) (any, error)
	// check validates the measured answers apart from the serving path
	// and returns why each wrong answer is wrong, by record index.
	check(recs []record) map[int]error
	// replayPlan picks, from the traced phase's records, the inputs the
	// traced run replays through each layer.
	replayPlan(recs []record) replayPlan
}

// record is one measured operation.
type record struct {
	resp    any
	err     error
	latency time.Duration
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// minRequests is the fewest requests a run must complete: the p90 is
// reported only with at least ten samples beyond it.
const minRequests = 100

// usage samples the process counters the per-request metrics divide.
type usage struct {
	cpu    time.Duration
	allocs uint64 // heap bytes allocated
	gcs    uint64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	metrics.Read(runtimeSamples)
	return usage{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs: runtimeSamples[0].Value.Uint64(),
		gcs:    runtimeSamples[1].Value.Uint64(),
	}
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := bytes.CutPrefix(sc.Bytes(), []byte("VmHWM:")); ok {
			kb, err := strconv.ParseFloat(string(bytes.TrimSpace(bytes.TrimSuffix(bytes.TrimSpace(v), []byte("kB")))), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// session is a built, warmed stack with its client.
type session struct {
	st *stack
	cl *client
}

func (s *session) close() {
	s.cl.close()
	s.st.close()
}

// setUpAll builds and warms the stack setupRounds times, timing each
// round, and keeps the last one for the measured phase.
func setUpAll(w workload, wrap wrapHandler) (*session, []float64, error) {
	var times []float64
	var sess *session
	for round := 0; round < setupRounds; round++ {
		if sess != nil {
			sess.close()
			sess = nil
			// Return the previous round's caches before the next round
			// builds its own, so rounds start alike.
			runtime.GC()
			debug.FreeOSMemory()
		}
		start := time.Now()
		st, err := newStack(0, wrap)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up round %d: %w", round, err)
		}
		sess = &session{st: st, cl: newClient(st.daemon.base)}
		if err := w.setUp(st, sess.cl, round); err != nil {
			sess.close()
			return nil, nil, fmt.Errorf("set-up round %d: %w", round, err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return sess, times, nil
}

// measure runs the closed loop for d and returns every record with the
// process usage over the loop and its wall time.
func measure(w workload, cl *client, d time.Duration) ([]record, usage, time.Duration) {
	// Start right after a collection, so every run meets its first
	// GC cycle at the same point of its request stream.
	runtime.GC()
	var recs []record
	u0 := readUsage()
	start := time.Now()
	deadline := start.Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		t := time.Now()
		resp, err := w.do(cl, i)
		recs = append(recs, record{resp: resp, err: err, latency: time.Since(t)})
	}
	elapsed := time.Since(start)
	u1 := readUsage()
	return recs, usage{cpu: u1.cpu - u0.cpu, allocs: u1.allocs - u0.allocs, gcs: u1.gcs - u0.gcs}, elapsed
}

// tally checks the records, reports each failure on stderr and returns
// the latencies of the operations that succeeded.
func tally(w workload, recs []record) (lat []float64, failed int, correct bool) {
	violations := w.check(recs)
	correct = len(violations) == 0
	for i, r := range recs {
		err := r.err
		if err == nil {
			err = violations[i]
		}
		if err != nil {
			failed++
			fmt.Fprintf(stderr, "perfbench: request %d failed: %v\n", i, err)
			continue
		}
		lat = append(lat, float64(r.latency)/float64(time.Millisecond))
	}
	return lat, failed, correct
}

// endToEnd runs one untraced measurement: set-up rounds, the closed
// loop, the output checks.
func endToEnd(w workload, seconds int) (*result, error) {
	w.prepare(seconds)
	sess, setups, err := setUpAll(w, nil)
	if err != nil {
		return nil, err
	}
	defer sess.close()
	recs, u, elapsed := measure(w, sess.cl, time.Duration(seconds)*time.Second)
	// The peak is read before the output checks, whose serial
	// re-computations run in this process too.
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	lat, failed, correct := tally(w, recs)
	done := len(lat)
	if done < minRequests {
		return nil, fmt.Errorf("only %d requests completed in %ds; the p90 needs %d", done, seconds, minRequests)
	}
	p50, err := percentile(lat, 50)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(lat, 90)
	if err != nil {
		return nil, err
	}
	sort.Float64s(setups)
	fmt.Fprintf(stderr, "perfbench: %d attempted, %d failed, set-up rounds %v s\n", len(recs), failed, setups)
	return &result{
		Correct: correct, Attempted: len(recs), Failed: failed,
		Metrics: map[string]metric{
			"setup_s":          {median(setups), "s"},
			"throughput_rps":   {float64(done) / elapsed.Seconds(), "req/s"},
			"latency_p50_ms":   {p50, "ms"},
			"latency_p90_ms":   {p90, "ms"},
			"cpu_ms_per_req":   {float64(u.cpu) / float64(time.Millisecond) / float64(done), "ms"},
			"alloc_mb_per_req": {float64(u.allocs) / 1e6 / float64(done), "MB"},
			"peak_rss_mb":      {rss, "MiB"},
		},
	}, nil
}
