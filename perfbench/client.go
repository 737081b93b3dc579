package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"drmap/internal/service"
)

// client is the benchmark's single closed-loop caller: one request at
// a time over one keep-alive connection.
type client struct {
	base string
	hc   *http.Client
	// tr, when set and on, records every call as an "http.client" span
	// whose ID rides the request to the server middleware.
	tr *tracer
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// begin opens an "http.client" span for req when tracing is on.
func (c *client) begin(req *http.Request) *span {
	if c.tr == nil || !c.tr.on.Load() {
		return nil
	}
	s := c.tr.begin("http.client", 0)
	req.Header.Set(spanHeader, strconv.FormatInt(s.ID, 10))
	return &s
}

func (c *client) finish(s *span, bytes, status int) {
	if s == nil {
		return
	}
	s.Bytes, s.Status = bytes, status
	c.tr.finish(*s)
}

// httpError is a non-2xx answer: its status and error body.
type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.body) }

// call sends one request and decodes a 2xx JSON answer into out.
func (c *client) call(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	s := c.begin(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.finish(s, len(data), resp.StatusCode)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return &httpError{status: resp.StatusCode, body: string(bytes.TrimSpace(data))}
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("decode %s %s: %w", method, path, err)
	}
	return nil
}

// streamed is what following one job's NDJSON event stream yields.
type streamed struct {
	events  int
	running time.Time // when the first "running" state event arrived
	final   service.JobState
}

// follow reads GET /api/v2/jobs/{id}/events to the terminal state
// event.
func (c *client) follow(id string) (streamed, error) {
	var out streamed
	req, err := http.NewRequest("GET", c.base+"/api/v2/jobs/"+id+"/events", nil)
	if err != nil {
		return out, err
	}
	s := c.begin(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return out, &httpError{status: resp.StatusCode, body: string(bytes.TrimSpace(data))}
	}
	size := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		size += len(line) + 1
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var ev service.JobEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return out, fmt.Errorf("decode event: %w", err)
		}
		out.events++
		if ev.Type == service.EventState {
			if ev.State == service.JobRunning && out.running.IsZero() {
				out.running = time.Now()
			}
			if ev.State.Terminal() {
				out.final = ev.State
			}
		}
	}
	if err := sc.Err(); err != nil {
		return out, err
	}
	// Drain so the connection is reused.
	_, _ = io.Copy(io.Discard, resp.Body)
	c.finish(s, size, resp.StatusCode)
	if !out.final.Terminal() {
		return out, fmt.Errorf("job %s: stream ended before a terminal state", id)
	}
	return out, nil
}
