package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"sketchengine/internal/core"
	"sketchengine/internal/server"
)

// clients is the closed loop's width: two callers, each on one
// keep-alive connection, each waiting for its reply.
const clients = 2

// bench is one run of a workload.
type bench struct {
	w      workload
	seed   uint64
	dir    string
	corpus *corpus
	tr     *tracer
	topo   *topology
	snap   *snapshotter

	mu        sync.Mutex
	ackedRecs []record // data of acked ingests, for the cluster merge check
	results   []result // every op sent, warm-up included
	acked     []string // every acked ingest name, tallied after the window
	failures  []error
	attempted int
}

func runWorkload(w workload, seed uint64, window time.Duration, traced bool, dir string) (*report, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	b := &bench{w: w, seed: seed, dir: runDir, tr: &tracer{}}
	b.corpus = newCorpus(seed, w.corpusSize, w.bases, w.copies)

	rep := &report{stamp: newStamp(w, seed, window, traced), metrics: map[string]metric{}, info: map[string]metric{}}
	// A traced run reports no setup_s, so it sets up once.
	reps := setupReps
	if traced {
		reps = 1
	}
	setup, err := b.setUp(reps)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		if b.topo != nil {
			_ = b.topo.close()
		}
	}()
	b.snap = newSnapshotter(b.topo, snapshotEvery)
	b.runPhases(100, clients, warmup)

	var untraced windowStats
	ticks := cpuTimes()
	if traced {
		layers, err := b.tracedRun(window)
		if err != nil {
			b.snap.close()
			return nil, err
		}
		for k, v := range layers {
			rep.metrics[k] = v
		}
	} else {
		untraced = b.runPhases(1, clients, window)
	}
	rep.stamp.StealShare, rep.stamp.IOWaitShare = shareOf(ticks, cpuTimes())
	b.snap.close()
	if err := b.checkAfter(); err != nil {
		return nil, err
	}
	resident, disk, err := b.footprint()
	if err != nil {
		return nil, err
	}
	b.failures = append(b.failures, b.snap.errs...)
	if traced {
		b.snap.report(rep.metrics)
	} else {
		untraced.report(rep.metrics, rep.info)
		rep.metrics["setup_s"] = metric{Value: median(setup), Unit: "s", n: len(setup)}
		rep.metrics["resident_bytes_per_record"] = metric{Value: resident, Unit: "B"}
		rep.metrics["disk_bytes_per_record"] = metric{Value: disk, Unit: "B"}
		rep.metrics["recall_at_10"] = b.recallMetric()
	}
	rep.attempted = b.attempted
	rep.failures = b.failures
	rep.notes = append(rep.notes, fmt.Sprintf("setup_s samples %v", setup))
	return rep, nil
}

// setUp builds the workload's serving state — nodes holding the corpus
// in sealed segments, the coordinator — reps times from scratch and
// keeps the last. It returns each set-up's seconds.
func (b *bench) setUp(reps int) ([]float64, error) {
	var secs []float64
	for rep := 0; rep < reps; rep++ {
		root := filepath.Join(b.dir, fmt.Sprintf("setup%d", rep))
		start := time.Now()
		topo, err := b.buildTopology(root)
		if err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if rep == reps-1 {
			b.topo = topo
			break
		}
		if err := topo.close(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(root); err != nil {
			return nil, err
		}
	}
	return secs, nil
}

func (b *bench) buildTopology(root string) (*topology, error) {
	n := 1
	if b.w.coordinator {
		n = 3
	}
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(root, fmt.Sprintf("node%d", i))
	}
	return startTopology(dirs, b.w.coordinator, b.tr, b.corpus.records)
}

// gens returns n op generators for mix on streams base, base+1, ...
func (b *bench) gens(base uint64, n int, mix [numKinds]int) []*opGen {
	out := make([]*opGen, n)
	for i := range out {
		out[i] = newOpGen(mix, b.corpus, b.seed, base+uint64(i), fmt.Sprintf("s%d-", base+uint64(i)))
	}
	return out
}

// runPhases runs each phase, in order, as a closed loop of n clients
// for its share of d. Phase i draws from streams base+10i onwards.
func (b *bench) runPhases(base uint64, n int, d time.Duration) windowStats {
	var ws windowStats
	for i, p := range phases {
		res, elapsed := closedLoop(b.topo.entry, b.gens(base+10*uint64(i), n, p.mix), time.Duration(p.share*float64(d)), b.onAcked)
		b.keep(res)
		ws.results = append(ws.results, res...)
		ws.elapsed += elapsed
		if p.mix[opHit]+p.mix[opMiss] > 0 {
			ws.searchTime += elapsed
		}
		if p.mix[opIngest] > 0 {
			ws.ingestTime += elapsed
		}
	}
	return ws
}

// onAcked counts acked records towards the next seal and, for the
// merge check, keeps their data.
func (b *bench) onAcked(o op) {
	b.snap.ack(len(o.records))
	if b.w.coordinator {
		b.mu.Lock()
		b.ackedRecs = append(b.ackedRecs, o.records...)
		b.mu.Unlock()
	}
}

// keep records finished ops for the checks after the window.
func (b *bench) keep(res []result) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.results = append(b.results, res...)
}

// checkAfter runs every check outside the timed window — reply
// shapes, the cluster merge against a single node, durability — and
// tallies ops attempted and failed.
func (b *bench) checkAfter() error {
	for i := range b.results {
		r := &b.results[i]
		if r.err == nil && r.kind != opIngest {
			if err := checkHits(r.hits, topK); err != nil {
				r.err = fmt.Errorf("search reply: %w", err)
			}
		}
	}
	if b.w.coordinator {
		if err := b.checkMerge(); err != nil {
			return err
		}
	}
	if err := b.topo.stopHTTP(); err != nil {
		return err
	}
	if err := b.checkDurable(); err != nil {
		return err
	}
	for _, r := range b.results {
		b.attempted++
		if r.err != nil {
			b.failures = append(b.failures, r.err)
		} else if r.kind == opIngest {
			b.acked = append(b.acked, r.names...)
		}
	}
	return nil
}

// checkMerge sends a fixed sample of hit and miss queries through the
// coordinator and compares each merged top-K with SearchTopKLSH on an
// in-process single node holding the same corpus.
func (b *bench) checkMerge() error {
	eng, err := tieredEngine(filepath.Join(b.dir, "reference"))
	if err != nil {
		return err
	}
	defer eng.Index().Close()
	if _, err := eng.AddBatch(slices.Concat(b.corpus.records, b.ackedRecs)); err != nil {
		return fmt.Errorf("merge check: load single node: %w", err)
	}
	g := newOpGen([numKinds]int{}, b.corpus, b.seed, 999, "m-")
	c := newHTTPClient(b.topo.entry)
	defer c.close()
	for i := 0; i < mergeSample; i++ {
		o := g.miss()
		if i%2 == 0 {
			o = g.hit()
		}
		res := c.run(o)
		b.attempted++
		if res.err == nil {
			q := eng.Sketcher().Sketch(o.query)
			want, err := core.SearchTopKLSH(eng.Index(), q, topK, 0, eng.Pool())
			if err != nil {
				return fmt.Errorf("merge check: single-node search: %w", err)
			}
			res.err = checkMerge(res.hits, want)
		}
		if res.err != nil {
			b.failures = append(b.failures, fmt.Errorf("merge check %s: %w", o.query.Name, res.err))
		}
	}
	return nil
}

// checkDurable reopens every node's data directory with core.Open
// while its server is still open and unsnapshotted — as after a crash —
// so records acked since the last seal come back only through WAL
// replay. An acked ingest fails if a record is missing from a node that
// should hold it: the one node, or each of the record's replicas.
func (b *bench) checkDurable() error {
	for _, n := range b.topo.nodes {
		ix, err := core.Open(n.dir)
		if err != nil {
			return fmt.Errorf("durability: reopen %s: %w", n.dir, err)
		}
		for i := range b.results {
			r := &b.results[i]
			if r.err != nil || r.kind != opIngest {
				continue
			}
			names := r.names
			if b.topo.coord != nil {
				names = slices.DeleteFunc(slices.Clone(names), func(name string) bool {
					return !slices.Contains(b.topo.coord.Ring().Replicas(name), n.lis.addr)
				})
			}
			if lost := missing(ix.Has, names); len(lost) > 0 {
				r.err = fmt.Errorf("durability: acked records %v missing from %s after reopen", lost, n.label)
			}
		}
		if err := ix.Close(); err != nil {
			return fmt.Errorf("durability: close reopened %s: %w", n.dir, err)
		}
	}
	return nil
}

// footprint seals every node and returns resident and on-disk bytes
// per logical record.
func (b *bench) footprint() (resident, disk float64, err error) {
	b.snap.seal()
	records := float64(len(b.corpus.records) + len(b.acked))
	var res, dsk int64
	for _, n := range b.topo.nodes {
		if t := n.eng.Index().Tier(); t != nil {
			res += t.ResidentBytes
		}
		err := filepath.WalkDir(n.dir, func(_ string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			fi, err := d.Info()
			if err == nil {
				dsk += fi.Size()
			}
			return err
		})
		if err != nil {
			return 0, 0, err
		}
	}
	return float64(res) / records, float64(dsk) / records, nil
}

func (b *bench) recallMetric() metric {
	var sum float64
	n := 0
	for _, r := range b.results {
		if r.kind == opHit && r.err == nil {
			sum += recall(r.hits, r.want)
			n++
		}
	}
	if n == 0 {
		return metric{Unit: "ratio"}
	}
	return metric{Value: sum / float64(n), Unit: "ratio", n: n}
}

// windowStats is one window's ops and how long its phases that search
// and that ingest ran.
type windowStats struct {
	results                         []result
	elapsed, searchTime, ingestTime time.Duration
}

// report adds the search metrics to m and the ingest metrics to info:
// ingest latency is bound by fsync on the shared disk, which does not
// repeat between runs, so those are printed but not gated.
func (ws windowStats) report(m, info map[string]metric) {
	var lat [numKinds][]float64
	searches, records := 0, 0
	for _, r := range ws.results {
		if r.err != nil {
			continue
		}
		lat[r.kind] = append(lat[r.kind], float64(r.rt)/float64(time.Millisecond))
		if r.kind == opIngest {
			records += r.records
		} else {
			searches++
		}
	}
	m["search_qps"] = metric{Value: ratio(float64(searches), ws.searchTime.Seconds()), Unit: "1/s", n: searches}
	info["ingest_share_of_requests"] = metric{Value: ratio(float64(len(lat[opIngest])), float64(len(lat[opIngest])+searches)), Unit: "ratio", n: len(lat[opIngest]) + searches}
	info["ingest_records_per_s"] = metric{Value: ratio(float64(records), ws.ingestTime.Seconds()), Unit: "1/s", n: records}
	for k, prefix := range map[opKind]string{opHit: "search_hit", opMiss: "search_miss", opIngest: "ingest"} {
		dst := m
		if k == opIngest {
			dst = info
		}
		dst[prefix+"_p50_ms"] = metric{Value: percentile(lat[k], 0.5), Unit: "ms", n: len(lat[k])}
		dst[prefix+"_p90_ms"] = metric{Value: percentile(lat[k], 0.9), Unit: "ms", n: len(lat[k])}
	}
}

// percentile returns the q-quantile of xs by linear interpolation
// between closest ranks; 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// memStats reads the Go runtime's allocation and GC counters.
func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// nodeStats fetches every node's /stats.
func (b *bench) nodeStats() ([]server.StatsResponse, error) {
	out := make([]server.StatsResponse, len(b.topo.nodes))
	for i, n := range b.topo.nodes {
		c := newHTTPClient(n.lis.addr)
		err := c.getJSON("/stats", &out[i])
		c.close()
		if err != nil {
			return nil, fmt.Errorf("stats %s: %w", n.label, err)
		}
	}
	return out, nil
}
