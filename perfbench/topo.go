package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sketchengine/internal/cluster"
	"sketchengine/internal/core"
	"sketchengine/internal/server"
)

// span is one handler invocation seen by a tracing wrapper.
type span struct {
	layer      string // "cluster", or the node's label
	route      string // method and path
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer collects spans from handler wrappers while on. With tracing
// off a wrapper costs one atomic load.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func (t *tracer) wrap(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		t.mu.Lock()
		t.spans = append(t.spans, span{layer, r.Method + " " + r.URL.Path, start, end})
		t.mu.Unlock()
	})
}

// take returns and clears the spans recorded so far.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

// listener serves one handler on a loopback port until stopped.
type listener struct {
	hs      *http.Server
	addr    string
	done    chan struct{}
	once    sync.Once
	stopErr error
}

// serve serves h on lis until stopped.
func serve(lis net.Listener, h http.Handler) *listener {
	l := &listener{hs: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}, addr: lis.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(lis) // always ErrServerClosed after Shutdown
	}()
	return l
}

func loopback() (net.Listener, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	return lis, nil
}

// stop stops accepting requests and waits for in-flight ones. Safe to
// call more than once.
func (l *listener) stop() error {
	l.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		l.stopErr = l.hs.Shutdown(ctx)
		<-l.done
	})
	return l.stopErr
}

// node is one single-node server on the tiered layout at -bits 8, the
// same shape as `engine serve -tiered -bits 8 -data-dir DIR`.
type node struct {
	dir   string
	label string
	eng   *core.Engine
	srv   *server.Server
	lis   *listener
}

func tieredEngine(dir string) (*core.Engine, error) {
	return core.NewEngine(core.Options{Bits: 8, Tiered: true, DataDir: dir, IndexName: "perfbench"})
}

// startNode builds a node's index from recs and serves it on lis. The
// records go in before the server commits the index: no WAL is
// attached until the first manifest, so they land in the segments that
// server.New seals — the path of `engine sketch -tiered` followed by
// `engine serve`.
func startNode(dir, label string, lis net.Listener, recs []record, tr *tracer) (*node, error) {
	eng, err := tieredEngine(dir)
	if err != nil {
		return nil, errors.Join(err, lis.Close())
	}
	if _, err := eng.AddBatch(recs); err != nil {
		return nil, errors.Join(err, lis.Close(), eng.Index().Close())
	}
	srv, err := server.New(eng, server.Config{DataDir: dir})
	if err != nil {
		return nil, errors.Join(err, lis.Close(), eng.Index().Close())
	}
	return &node{dir: dir, label: label, eng: eng, srv: srv, lis: serve(lis, tr.wrap(label, srv.Handler()))}, nil
}

// close stops the node: HTTP, then the server's flush and final
// snapshot, then the index's files.
func (n *node) close() error {
	return errors.Join(n.lis.stop(), n.srv.Close(), n.eng.Index().Close())
}

// topology is what a workload serves: one node, or three backends
// behind a coordinator with R=2. entry is the address clients call.
type topology struct {
	nodes []*node
	coord *cluster.Coordinator
	front *listener
	entry string
}

// replication is the cluster's R.
const replication = 2

// startTopology starts one node per dir, holding corpus, and with
// withCoordinator a coordinator over them. The coordinator's ring
// places each corpus record on its replicas, as ingesting it through
// the coordinator would.
func startTopology(dirs []string, withCoordinator bool, tr *tracer, corpus []record) (t *topology, err error) {
	t = &topology{}
	liss := make([]net.Listener, len(dirs))
	defer func() {
		if err != nil {
			for _, lis := range liss[len(t.nodes):] {
				if lis != nil {
					_ = lis.Close()
				}
			}
			err = errors.Join(err, t.close())
			t = nil
		}
	}()
	// Bind every port first: the ring places records by address.
	addrs := make([]string, len(dirs))
	for i := range dirs {
		if liss[i], err = loopback(); err != nil {
			return t, err
		}
		addrs[i] = liss[i].Addr().String()
	}
	placed := make([][]record, len(dirs))
	if withCoordinator {
		ring, err := cluster.NewRing(addrs, replication)
		if err != nil {
			return t, err
		}
		for _, r := range corpus {
			for _, addr := range ring.Replicas(r.Name) {
				i := slices.Index(addrs, addr)
				placed[i] = append(placed[i], r)
			}
		}
	} else {
		placed[0] = corpus
	}
	for i, d := range dirs {
		n, err := startNode(d, fmt.Sprintf("node%d", i), liss[i], placed[i], tr)
		if err != nil {
			liss[i] = nil // startNode closed it
			return t, err
		}
		t.nodes = append(t.nodes, n)
	}
	if !withCoordinator {
		t.entry = addrs[0]
		return t, nil
	}
	// No Serve loop runs, so no health prober: every backend stays up,
	// as in a healthy cluster. The hint drainer is disabled because no
	// write misses a replica in these workloads.
	t.coord, err = cluster.New(cluster.Config{Backends: addrs, Replication: replication, HintInterval: -1})
	if err != nil {
		return t, err
	}
	lis, err := loopback()
	if err != nil {
		return t, err
	}
	t.front = serve(lis, tr.wrap("cluster", t.coord.Handler()))
	t.entry = t.front.addr
	return t, nil
}

// stopHTTP stops every listener, front first, leaving the engines and
// their files open.
func (t *topology) stopHTTP() error {
	var errs []error
	if t.front != nil {
		errs = append(errs, t.front.stop())
	}
	for _, n := range t.nodes {
		errs = append(errs, n.lis.stop())
	}
	return errors.Join(errs...)
}

func (t *topology) close() error {
	var errs []error
	if t.front != nil {
		errs = append(errs, t.front.stop())
	}
	if t.coord != nil {
		errs = append(errs, t.coord.Close())
	}
	for _, n := range t.nodes {
		errs = append(errs, n.close())
	}
	return errors.Join(errs...)
}

// nodeIndex returns the index of the node whose spans carry label.
func (t *topology) nodeIndex(label string) int {
	return slices.IndexFunc(t.nodes, func(n *node) bool { return n.label == label })
}
