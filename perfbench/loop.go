package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sketchengine/internal/server"
)

// httpClient is one benchmark client: a single keep-alive connection
// to the entry point.
type httpClient struct {
	hc   *http.Client
	base string
}

func newHTTPClient(addr string) *httpClient {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &httpClient{hc: &http.Client{Transport: tr, Timeout: time.Minute}, base: "http://" + addr}
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole reply. rt covers sending
// the encoded body through reading the last response byte; encoding
// and decoding are the caller's and stay outside it.
func (c *httpClient) do(method, path string, body []byte) (status int, reply []byte, rt time.Duration, err error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	reply, err = io.ReadAll(resp.Body)
	rt = time.Since(start)
	resp.Body.Close()
	return resp.StatusCode, reply, rt, err
}

func (c *httpClient) getJSON(path string, v any) error {
	status, reply, _, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, reply)
	}
	return json.Unmarshal(reply, v)
}

// result is one completed client operation.
type result struct {
	kind    opKind
	rt      time.Duration
	err     error // transport error, non-2xx reply, or a failed check
	hits    []server.SearchHit
	want    []string
	names   []string // ingest: the names the reply acknowledged
	records int
}

func encodeOp(o op) (path string, body []byte, err error) {
	if o.kind == opIngest {
		req := server.IngestRequest{Records: make([]server.IngestRecord, len(o.records))}
		for i, r := range o.records {
			req.Records[i] = server.IngestRecord{Name: r.Name, Data: string(r.Data)}
		}
		body, err = json.Marshal(req)
		return "/v1/records", body, err
	}
	body, err = json.Marshal(server.SearchRequest{Name: o.query.Name, Data: string(o.query.Data), K: topK})
	return "/v1/search", body, err
}

// topK is the K every search asks for.
const topK = 10

// run sends o and decodes the reply into a result.
func (c *httpClient) run(o op) result {
	res := result{kind: o.kind, want: o.want}
	path, body, err := encodeOp(o)
	if err != nil {
		res.err = err
		return res
	}
	status, reply, rt, err := c.do(http.MethodPost, path, body)
	res.rt = rt
	switch {
	case err != nil:
		res.err = err
	case status != http.StatusOK:
		res.err = fmt.Errorf("%s: status %d: %s", path, status, bytes.TrimSpace(reply))
	case o.kind == opIngest:
		var ir server.IngestResponse
		if res.err = json.Unmarshal(reply, &ir); res.err == nil && (ir.Received != len(o.records) || ir.Added != len(o.records)) {
			res.err = fmt.Errorf("ingest: %d records sent, %d received, %d added", len(o.records), ir.Received, ir.Added)
		}
		if res.err == nil {
			for _, r := range o.records {
				res.names = append(res.names, r.Name)
			}
			res.records = len(o.records)
		}
	default:
		var sr server.SearchResponse
		if res.err = json.Unmarshal(reply, &sr); res.err == nil {
			res.hits = sr.Results
			if sr.Partial {
				res.err = fmt.Errorf("search %s: partial result", o.query.Name)
			}
		}
	}
	return res
}

// snapshotter calls Server.Snapshot on every node each time another
// `every` records have been acknowledged, instead of the server's timer,
// so segment seals happen at points the op stream fixes.
type snapshotter struct {
	topo  *topology
	every int64
	acked atomic.Int64
	kick  chan struct{}
	stop  chan struct{}
	done  chan struct{}

	mu        sync.Mutex
	durations []time.Duration // per node Snapshot call that wrote
	walBytes  int64           // WAL depth sampled before each seal
	walFrames int64
	errs      []error
}

func newSnapshotter(topo *topology, every int) *snapshotter {
	s := &snapshotter{topo: topo, every: int64(every), kick: make(chan struct{}, 1), stop: make(chan struct{}), done: make(chan struct{})}
	go s.loop()
	return s
}

// ack records n acknowledged records and wakes the loop when a
// multiple of every is crossed.
func (s *snapshotter) ack(n int) {
	after := s.acked.Add(int64(n))
	if after/s.every != (after-int64(n))/s.every {
		select {
		case s.kick <- struct{}{}:
		default: // a seal is already pending; it covers this one
		}
	}
}

func (s *snapshotter) loop() {
	defer close(s.done)
	for {
		select {
		case <-s.stop:
			return
		case <-s.kick:
			s.seal()
		}
	}
}

func (s *snapshotter) seal() {
	for _, n := range s.topo.nodes {
		ix := n.eng.Index()
		if st := ix.WAL(); st != nil {
			s.mu.Lock()
			s.walBytes += st.Bytes
			s.walFrames += st.Frames
			s.mu.Unlock()
		}
		start := time.Now()
		wrote, err := n.srv.Snapshot()
		d := time.Since(start)
		s.mu.Lock()
		if err != nil {
			s.errs = append(s.errs, fmt.Errorf("snapshot %s: %w", n.label, err))
		} else if wrote {
			s.durations = append(s.durations, d)
		}
		s.mu.Unlock()
	}
}

func (s *snapshotter) close() {
	close(s.stop)
	<-s.done
}

// report adds the seal time and the WAL's bytes per record to m. Call
// it after the loop is closed.
func (s *snapshotter) report(m map[string]metric) {
	ms := make([]float64, len(s.durations))
	for i, d := range s.durations {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	m["core.snapshot.ms"] = metric{Value: median(ms), Unit: "ms", n: len(ms)}
	m["core.wal.bytes_per_record"] = metric{Value: ratio(float64(s.walBytes), float64(s.walFrames)), Unit: "B", n: int(s.walFrames)}
}

// closedLoop runs one closed loop per generator until d has passed:
// each client sends its next op only when the previous reply is in.
// onAcked sees every acknowledged ingest op. It returns every completed
// op and the time from start until the last reply.
func closedLoop(addr string, gens []*opGen, d time.Duration, onAcked func(op)) ([]result, time.Duration) {
	var wg sync.WaitGroup
	out := make([][]result, len(gens))
	start := time.Now()
	deadline := start.Add(d)
	for i, g := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newHTTPClient(addr)
			defer c.close()
			for time.Now().Before(deadline) {
				o := g.next()
				res := c.run(o)
				if o.kind == opIngest && res.err == nil {
					onAcked(o)
				}
				out[i] = append(out[i], res)
			}
		}()
	}
	wg.Wait()
	return slices.Concat(out...), time.Since(start)
}
