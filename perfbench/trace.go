package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run's span recorder. Spans are recorded from the
// benchmark's own files only - around HTTP calls, in middleware
// wrapped around each node's handler, and around the calls the replay
// makes into each layer's public functions - kept in memory, and
// written out when the run ends.

// spanHeader carries the client span's ID to the server middleware,
// which records its span as that span's child.
const spanHeader = "X-Perfbench-Span"

type span struct {
	ID     int64     `json:"id"`
	Parent int64     `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Bytes  int       `json:"bytes,omitempty"`
	Status int       `json:"status,omitempty"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

type tracer struct {
	on     atomic.Bool
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

// begin opens a span; finish records it.
func (t *tracer) begin(name string, parent int64) span {
	return span{ID: t.nextID.Add(1), Parent: parent, Name: name, Start: time.Now()}
}

func (t *tracer) finish(s span) {
	s.End = time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed records fn's run as a span named name under parent.
func (t *tracer) timed(name string, parent int64, fn func()) {
	s := t.begin(name, parent)
	fn()
	t.finish(s)
}

// statusWriter counts a response's status and bytes.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// Flush keeps the job event stream flowing through the wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// wrap is the timing middleware: "http.server" spans on the daemon,
// "cluster.shard" spans for shard calls on workers. It records only
// while tracing is on.
func (t *tracer) wrap(role string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := "http.server"
		if role == "worker" {
			name = "cluster.shard"
			if r.URL.Path != "/cluster/v1/shard" {
				h.ServeHTTP(w, r)
				return
			}
		}
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		// On the daemon only the benchmark client's calls are timed, not
		// worker heartbeats.
		if !t.on.Load() || (role != "worker" && parent == 0) {
			h.ServeHTTP(w, r)
			return
		}
		s := t.begin(name, parent)
		sw := &statusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, r)
		s.Bytes, s.Status = sw.bytes, sw.status
		t.finish(s)
	})
}

// stats aggregates the recorded spans by name: count, total duration,
// total self time (duration minus the time of direct children) and
// total bytes.
type spanStats struct {
	n     int
	total time.Duration
	self  time.Duration
	bytes int
	fails int
}

func (t *tracer) stats() map[string]*spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64]time.Duration{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	out := map[string]*spanStats{}
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.n++
		st.total += s.dur()
		st.self += s.dur() - children[s.ID]
		st.bytes += s.Bytes
		if s.Status >= 400 {
			st.fails++
		}
	}
	return out
}

// writeOut writes every span as one JSON line into dir.
func (t *tracer) writeOut(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}
