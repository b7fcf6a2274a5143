package main

import (
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"sketchengine/internal/cluster"
	"sketchengine/internal/core"
)

// Route names as the tracing wrappers record them.
const (
	routeSearch = "POST /v1/search"
	routeIngest = "POST /v1/records"
)

// ledger accumulates per-layer measurements from traced ops. Times are
// in microseconds.
type ledger struct {
	rt [2][numKinds][]float64 // [traced][kind] client round trips

	httpSearchSelf   []float64
	serverSearchSelf []float64
	serverIngestSelf []float64
	sketchUS         float64
	sketchKiB        float64
	lshHit, lshMiss  []float64
	exactMiss        []float64
	lshScanned       uint64
	lshSurvived      uint64
	lshRescored      uint64
	lshCalls         int
	addUS            float64
	addRecords       int

	clusterSearchSelf []float64
	clusterSkew       []float64
	clusterIngestSelf []float64
	backendCalls      int
	clusterOps        int
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// tracedRun measures the per-layer ledger. The first half of the window
// is the untraced closed loop, read through counters: /stats, the
// index's tier and WAL getters, and the Go runtime. The second half is
// one client, so spans nest by time; every other op is traced, and the
// untraced ones in between give the tracing overhead.
func (b *bench) tracedRun(window time.Duration) (map[string]metric, error) {
	m := map[string]metric{}
	half := window / 2
	statsA, err := b.nodeStats()
	if err != nil {
		return nil, err
	}
	coordA, err := b.coordStats()
	if err != nil {
		return nil, err
	}
	memA := memStats()
	ws := b.runPhases(1, clients, half)
	memB := memStats()
	statsB, err := b.nodeStats()
	if err != nil {
		return nil, err
	}

	ops, acked := len(ws.results), 0
	for _, r := range ws.results {
		if r.kind == opIngest && r.err == nil {
			acked += r.records
		}
	}
	var batches, batched, fsyncs, fsyncNanos int64
	var peak int64
	for i := range statsB {
		batches += statsB[i].Ingest.Batches - statsA[i].Ingest.Batches
		batched += statsB[i].Ingest.BatchedRecords - statsA[i].Ingest.BatchedRecords
		peak = max(peak, statsB[i].Requests.PeakInFlight)
		if wa, wb := statsA[i].Engine.WAL, statsB[i].Engine.WAL; wa != nil && wb != nil {
			fsyncs += int64(wb.Fsyncs - wa.Fsyncs)
			fsyncNanos += int64(wb.FsyncNanos - wa.FsyncNanos)
		}
	}
	m["server.ingest.records_per_batch"] = metric{Value: ratio(float64(batched), float64(batches)), Unit: "count", n: int(batches)}
	m["server.peak_in_flight"] = metric{Value: float64(peak), Unit: "count"}
	m["core.wal.fsyncs_per_record"] = metric{Value: ratio(float64(fsyncs), float64(acked)), Unit: "count", n: acked}
	m["core.wal.fsync_ms"] = metric{Value: ratio(float64(fsyncNanos)/1e6, float64(fsyncs)), Unit: "ms", n: int(fsyncs)}
	m["runtime.alloc_bytes_per_op"] = metric{Value: ratio(float64(memB.TotalAlloc-memA.TotalAlloc), float64(ops)), Unit: "B", n: ops}
	m["runtime.gc_pause_ms_per_s"] = metric{Value: float64(memB.PauseTotalNs-memA.PauseTotalNs) / 1e6 / ws.elapsed.Seconds(), Unit: "ms/s"}

	led, err := b.traceLoop(half)
	if err != nil {
		return nil, err
	}
	led.report(m)

	statsC, err := b.nodeStats()
	if err != nil {
		return nil, err
	}
	var readErrs uint64
	for i := range statsC {
		if ta, tc := statsA[i].Engine.Tier, statsC[i].Engine.Tier; ta != nil && tc != nil {
			readErrs += tc.ReadErrors - ta.ReadErrors
		}
	}
	m["core.tier.read_errors"] = metric{Value: float64(readErrs), Unit: "count"}
	coordC, err := b.coordStats()
	if err != nil {
		return nil, err
	}
	var retries, partials, quorum, hints float64
	if coordA != nil {
		retries = float64(coordC.Retries - coordA.Retries)
		partials = float64(coordC.PartialResults - coordA.PartialResults)
		quorum = float64(coordC.QuorumFailures - coordA.QuorumFailures)
		hints = float64(coordC.Hints.Pending)
	}
	m["cluster.retries"] = metric{Value: retries, Unit: "count"}
	m["cluster.partial_results"] = metric{Value: partials, Unit: "count"}
	m["cluster.quorum_failures"] = metric{Value: quorum, Unit: "count"}
	m["cluster.pending_hints"] = metric{Value: hints, Unit: "count"}
	return m, nil
}

// coordStats fetches the coordinator's /stats, or nil on a single node.
func (b *bench) coordStats() (*cluster.StatsResponse, error) {
	if b.topo.coord == nil {
		return nil, nil
	}
	var st cluster.StatsResponse
	c := newHTTPClient(b.topo.entry)
	defer c.close()
	if err := c.getJSON("/stats", &st); err != nil {
		return nil, fmt.Errorf("coordinator stats: %w", err)
	}
	return &st, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceLoop runs one client through the phases for d, tracing every
// other op. After a traced op's reply it repeats the op's core work in
// process on the same inputs, each call timed: Sketcher.SketchInto,
// SearchTopKLSH and (for misses) SearchTopK on every node's live index,
// and for ingests AddSketches on a twin tiered engine per node. A
// layer's self time is its span minus the spans of the layers it calls.
func (b *bench) traceLoop(d time.Duration) (*ledger, error) {
	led := &ledger{}
	twins := make([]*core.Engine, len(b.topo.nodes))
	for i := range twins {
		eng, err := tieredEngine(filepath.Join(b.dir, fmt.Sprintf("twin%d", i)))
		if err != nil {
			return nil, err
		}
		defer eng.Index().Close()
		twins[i] = eng
	}
	c := newHTTPClient(b.topo.entry)
	defer c.close()
	for pi, p := range phases {
		g := b.gens(50+10*uint64(pi), 1, p.mix)[0]
		if err := led.traceClient(b, c, g, time.Duration(p.share*float64(d)), twins); err != nil {
			return nil, err
		}
	}
	return led, nil
}

// traceClient runs one client's ops from g for d, tracing every other.
func (led *ledger) traceClient(b *bench, c *httpClient, g *opGen, d time.Duration, twins []*core.Engine) error {
	var results []result
	defer func() { b.keep(results) }()
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		o := g.next()
		traced := i%2 == 1
		var walBefore []*core.WALStats
		if traced {
			walBefore = b.walStats()
			b.tr.on.Store(true)
		}
		res := c.run(o)
		b.tr.on.Store(false)
		spans := b.tr.take()
		results = append(results, res)
		if res.err != nil {
			continue
		}
		if o.kind == opIngest {
			b.onAcked(o)
		}
		t := 0
		if traced {
			t = 1
		}
		led.rt[t][o.kind] = append(led.rt[t][o.kind], us(res.rt))
		if traced {
			if err := led.observe(b, o, res, spans, walBefore, twins); err != nil {
				return err
			}
		}
	}
	return nil
}

func (b *bench) walStats() []*core.WALStats {
	out := make([]*core.WALStats, len(b.topo.nodes))
	for i, n := range b.topo.nodes {
		out[i] = n.eng.Index().WAL()
	}
	return out
}

// observe splits one traced op into layers.
func (led *ledger) observe(b *bench, o op, res result, spans []span, walBefore []*core.WALStats, twins []*core.Engine) error {
	route := routeSearch
	if o.kind == opIngest {
		route = routeIngest
	}
	var top *span
	var nodeSpans []span
	for i := range spans {
		s := spans[i]
		if s.route != route {
			continue
		}
		if s.layer == "cluster" {
			top = &spans[i]
		} else {
			nodeSpans = append(nodeSpans, s)
		}
	}
	if len(nodeSpans) == 0 || (b.topo.coord != nil && top == nil) {
		return fmt.Errorf("traced %s op recorded no spans", o.kind)
	}
	if top == nil {
		top = &nodeSpans[0]
	}
	if b.topo.coord != nil {
		led.clusterOps++
		led.backendCalls += len(nodeSpans)
		slow, fast := nodeSpans[0].dur(), nodeSpans[0].dur()
		for _, s := range nodeSpans[1:] {
			slow, fast = max(slow, s.dur()), min(fast, s.dur())
		}
		if o.kind == opIngest {
			led.clusterIngestSelf = append(led.clusterIngestSelf, us(top.dur()-slow))
		} else {
			led.clusterSearchSelf = append(led.clusterSearchSelf, us(top.dur()-slow))
			led.clusterSkew = append(led.clusterSkew, us(slow-fast))
		}
	}
	if o.kind == opIngest {
		return led.observeIngest(b, o, nodeSpans, walBefore, twins)
	}
	led.httpSearchSelf = append(led.httpSearchSelf, us(res.rt-top.dur()))

	sk := b.topo.nodes[0].eng.Sketcher()
	q := &core.Sketch{Name: o.query.Name, K: sk.K(), Scheme: sk.Scheme(), Signature: make([]uint64, sk.SignatureSize())}
	start := time.Now()
	q.Shingles = sk.SketchInto(q.Signature, o.query)
	sketch := time.Since(start)
	led.sketchUS += us(sketch)
	led.sketchKiB += float64(len(o.query.Data)) / 1024
	for _, s := range nodeSpans {
		n := b.topo.nodes[b.topo.nodeIndex(s.layer)]
		ix := n.eng.Index()
		before := ix.Tier()
		start := time.Now()
		if _, err := core.SearchTopKLSH(ix, q, topK, 0, n.eng.Pool()); err != nil {
			return err
		}
		lsh := time.Since(start)
		after := ix.Tier()
		led.lshCalls++
		led.lshScanned += after.PrefilterScanned - before.PrefilterScanned
		led.lshSurvived += after.PrefilterSurvived - before.PrefilterSurvived
		led.lshRescored += after.Rescored - before.Rescored
		if o.kind == opHit {
			led.lshHit = append(led.lshHit, us(lsh))
			led.serverSearchSelf = append(led.serverSearchSelf, us(s.dur()-sketch-lsh))
			continue
		}
		led.lshMiss = append(led.lshMiss, us(lsh))
		start = time.Now()
		if _, err := core.SearchTopK(ix, q, topK, 0, n.eng.Pool()); err != nil {
			return err
		}
		led.exactMiss = append(led.exactMiss, us(time.Since(start)))
	}
	return nil
}

// observeIngest times the op's records through the sketcher and, per
// node that served a sub-batch, through the twin's index add, and
// charges the node's WAL fsync time during the op; what remains of the
// node's span is the server's own.
func (led *ledger) observeIngest(b *bench, o op, nodeSpans []span, walBefore []*core.WALStats, twins []*core.Engine) error {
	sk := b.topo.nodes[0].eng.Sketcher()
	sig := make([]uint64, sk.SignatureSize())
	for _, r := range o.records {
		start := time.Now()
		sk.SketchInto(sig, r)
		led.sketchUS += us(time.Since(start))
		led.sketchKiB += float64(len(r.Data)) / 1024
	}
	walAfter := b.walStats()
	for _, s := range nodeSpans {
		ni := b.topo.nodeIndex(s.layer)
		n := b.topo.nodes[ni]
		recs := o.records
		if b.topo.coord != nil {
			recs = nil
			for _, r := range o.records {
				if slices.Contains(b.topo.coord.Ring().Replicas(r.Name), n.lis.addr) {
					recs = append(recs, r)
				}
			}
		}
		// Sketch the sub-batch on the node's pool, as the server's
		// batcher does, then add the sketches to the twin.
		sketches := make([]*core.Sketch, len(recs))
		start := time.Now()
		n.eng.Pool().Map(len(recs), func(j int) {
			sketches[j] = sk.Sketch(recs[j])
		})
		sketch := time.Since(start)
		start = time.Now()
		if _, err := twins[ni].AddSketches(sketches); err != nil {
			return fmt.Errorf("twin add: %w", err)
		}
		add := time.Since(start)
		led.addUS += us(add)
		led.addRecords += len(recs)
		var fsync time.Duration
		if wa, wb := walBefore[ni], walAfter[ni]; wa != nil && wb != nil {
			fsync = time.Duration(wb.FsyncNanos - wa.FsyncNanos)
		}
		led.serverIngestSelf = append(led.serverIngestSelf, us(s.dur()-sketch-add-fsync))
	}
	return nil
}

// report adds the ledger's metrics to m.
func (led *ledger) report(m map[string]metric) {
	med := func(name, unit string, xs []float64) {
		m[name] = metric{Value: median(xs), Unit: unit, n: len(xs)}
	}
	med("http.search.self_us", "us", led.httpSearchSelf)
	med("server.search.self_us", "us", led.serverSearchSelf)
	med("server.ingest.self_us", "us", led.serverIngestSelf)
	med("core.query.hit_us", "us", led.lshHit)
	med("core.query.miss_us", "us", led.lshMiss)
	med("core.query.exact_miss_us", "us", led.exactMiss)
	med("cluster.search.self_us", "us", led.clusterSearchSelf)
	med("cluster.search.backend_skew_us", "us", led.clusterSkew)
	med("cluster.ingest.self_us", "us", led.clusterIngestSelf)
	m["core.query.lsh_over_exact"] = metric{Value: ratio(median(led.lshMiss), median(led.exactMiss)), Unit: "ratio"}
	m["core.sketch.us_per_kib"] = metric{Value: ratio(led.sketchUS, led.sketchKiB), Unit: "us/KiB"}
	m["core.tier.survival_rate"] = metric{Value: ratio(float64(led.lshSurvived), float64(led.lshScanned)), Unit: "ratio", n: led.lshCalls}
	m["core.tier.rescored_per_search"] = metric{Value: ratio(float64(led.lshRescored), float64(led.lshCalls)), Unit: "count", n: led.lshCalls}
	m["core.index.add_us_per_record"] = metric{Value: ratio(led.addUS, float64(led.addRecords)), Unit: "us", n: led.addRecords}
	m["cluster.backend_calls_per_op"] = metric{Value: ratio(float64(led.backendCalls), float64(led.clusterOps)), Unit: "count", n: led.clusterOps}

	// Overhead: the traced ops' round trips against the untraced ones
	// in between, per op class, weighted by the class's traced count.
	var tr, un float64
	for k := range numKinds {
		if len(led.rt[0][k]) == 0 || len(led.rt[1][k]) == 0 {
			continue
		}
		n := float64(len(led.rt[1][k]))
		tr += n * median(led.rt[1][k])
		un += n * median(led.rt[0][k])
	}
	m["trace.overhead_pct"] = metric{Value: 100 * (ratio(tr, un) - 1), Unit: "%"}
}
