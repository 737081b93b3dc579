package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"drmap/internal/cluster"
	"drmap/internal/obs"
	"drmap/internal/service"
)

// wrapHandler, when set, wraps a node's HTTP handler before it serves;
// the traced run installs its timing middleware through it. role is
// "daemon" for the node the client talks to and "worker" for a cluster
// worker.
type wrapHandler func(role string, h http.Handler) http.Handler

// node is one daemon served on a loopback port, built the way
// cmd/drmap-serve builds it: service.New -> NewJobManager -> NewServer.
type node struct {
	svc    *service.Service
	srv    *http.Server
	ln     net.Listener
	base   string
	served chan error
}

func listenNode() (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	return &node{
		svc:    service.New(service.Options{}),
		ln:     ln,
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}, nil
}

func (n *node) serve(role string, mount func(*http.ServeMux), wrap wrapHandler) {
	jobs := service.NewJobManager(n.svc, service.JobManagerOptions{})
	n.srv = service.NewServer(n.svc, service.ServerOptions{
		Jobs: jobs, Mount: mount, Logger: obs.NopLogger(),
	})
	if wrap != nil {
		n.srv.Handler = wrap(role, n.srv.Handler)
	}
	go func() {
		err := n.srv.Serve(n.ln)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		n.served <- err
	}()
}

func (n *node) close() error {
	if n.srv == nil {
		return n.ln.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown %s: %w", n.base, err)
	}
	return <-n.served
}

// stack is the serving side of one workload: a standalone daemon, or a
// coordinator daemon with in-process workers that heartbeat to it.
type stack struct {
	daemon  *node
	coord   *cluster.Coordinator
	workers []*node

	stopBeats context.CancelFunc
	beats     sync.WaitGroup
}

// newStack builds and serves a standalone daemon or, with workers > 0,
// a coordinator plus that many workers, each a full daemon of its own
// as drmap-worker runs it, registered over HTTP before newStack
// returns.
func newStack(workers int, wrap wrapHandler) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	st.daemon, err = listenNode()
	if err != nil {
		return nil, err
	}
	var mount func(*http.ServeMux)
	if workers > 0 {
		st.coord = cluster.NewCoordinator(cluster.CoordinatorOptions{
			Registry: st.daemon.svc.Registry(), Logger: obs.NopLogger(),
		})
		st.daemon.svc.SetRunner(st.coord)
		mount = st.coord.Mount
	}
	st.daemon.serve("daemon", mount, wrap)

	ctx, cancel := context.WithCancel(context.Background())
	st.stopBeats = cancel
	for i := 0; i < workers; i++ {
		n, err := listenNode()
		if err != nil {
			return nil, err
		}
		st.workers = append(st.workers, n)
		w := cluster.NewWorker(n.svc, cluster.WorkerOptions{
			ID: fmt.Sprintf("worker-%d", i), AdvertiseURL: n.base,
			CoordinatorURL: st.daemon.base, Logger: obs.NopLogger(),
		})
		n.serve("worker", w.Mount, wrap)
		if err := w.Register(ctx); err != nil {
			return nil, err
		}
		st.beats.Add(1)
		go func() {
			defer st.beats.Done()
			_ = w.Run(ctx, func(err error) { fmt.Fprintln(stderr, "perfbench: heartbeat:", err) })
		}()
	}
	return st, nil
}

// close stops the heartbeats and shuts every node down, waiting for
// each to finish serving.
func (st *stack) close() {
	if st.stopBeats != nil {
		st.stopBeats()
		st.beats.Wait()
	}
	for _, n := range append(st.workers, st.daemon) {
		if n == nil {
			continue
		}
		if err := n.close(); err != nil {
			fmt.Fprintln(stderr, "perfbench: close:", err)
		}
	}
}
