package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"sketchengine/internal/core"
	"sketchengine/internal/server"
)

// declared reads the metric names BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench defines %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not defined in perfbench", w.Name)
		}
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// tiny shrinks a workload to a corpus that loads in well under a second.
func tiny(w workload) workload {
	w.corpusSize, w.bases = 300, 5
	return w
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			rep, err := runWorkload(tiny(w), 7, 400*time.Millisecond, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !rep.correct() {
				t.Errorf("%s trace=%v: checks failed: %v", w.name, traced, rep.failures)
			}
			var got []string
			for name := range rep.metrics {
				got = append(got, name)
			}
			slices.Sort(got)
			want = slices.Sorted(slices.Values(want))
			if !slices.Equal(got, want) {
				t.Errorf("%s trace=%v: emitted %v, want %v", w.name, traced, got, want)
			}
			var out bytes.Buffer
			if err := rep.print(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var final struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]metric
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", w.name, err)
			}
			if final.Attempted < 1 || len(final.Metrics) != len(want) {
				t.Errorf("%s trace=%v: result %+v", w.name, traced, final)
			}
			if !traced {
				for _, name := range []string{"ingest_records_per_s", "ingest_p50_ms", "ingest_p90_ms", "ingest_share_of_requests"} {
					if !strings.Contains(out.String(), "# "+name) {
						t.Errorf("%s: report lacks %s", w.name, name)
					}
				}
			}
		}
	}
}

func TestBadArgumentsExitNonZero(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "search", "-trace", "2"},
		{"-workload", "search", "-seconds", "0"},
		{"-bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q", args, code, out.String())
		}
	}
}

func TestSameSeedSameOps(t *testing.T) {
	mix := [numKinds]int{1, 4, 2}
	c := newCorpus(3, 50, 2, 3)
	a, b := newOpGen(mix, c, 3, 1, "x"), newOpGen(mix, c, 3, 1, "x")
	var counts, want [numKinds]int
	for k, n := range mix {
		want[k] = 2 * n
	}
	for range 2 * (mix[opHit] + mix[opMiss] + mix[opIngest]) {
		oa, ob := a.next(), b.next()
		if oa.kind != ob.kind || oa.query.Name != ob.query.Name || !slices.Equal(oa.want, ob.want) || len(oa.records) != len(ob.records) {
			t.Fatalf("streams diverge: %v vs %v", oa.kind, ob.kind)
		}
		counts[oa.kind]++
	}
	if counts != want {
		t.Errorf("two decks dealt %v, want %v", counts, want)
	}
}

func TestCheckHitsRejectsBadReplies(t *testing.T) {
	ok := []server.SearchHit{{Rank: 1, Ref: "a", Similarity: 0.9}, {Rank: 2, Ref: "b", Similarity: 0.5}}
	if err := checkHits(ok, 2); err != nil {
		t.Fatalf("good reply rejected: %v", err)
	}
	bad := map[string][]server.SearchHit{
		"too many":  {{Rank: 1, Ref: "a"}, {Rank: 2, Ref: "b"}, {Rank: 3, Ref: "c"}},
		"dup ref":   {{Rank: 1, Ref: "a", Similarity: 0.9}, {Rank: 2, Ref: "a", Similarity: 0.5}},
		"range":     {{Rank: 1, Ref: "a", Similarity: 1.5}},
		"negative":  {{Rank: 1, Ref: "a", Similarity: -0.1}},
		"order":     {{Rank: 1, Ref: "a", Similarity: 0.5}, {Rank: 2, Ref: "b", Similarity: 0.9}},
		"bad ranks": {{Rank: 2, Ref: "a", Similarity: 0.5}},
	}
	for name, hits := range bad {
		if checkHits(hits, 2) == nil {
			t.Errorf("%s: bad reply accepted", name)
		}
	}
}

func TestRecallScoresGroundTruth(t *testing.T) {
	want := []string{"a", "b", "c", "d"}
	hits := []server.SearchHit{{Ref: "a"}, {Ref: "x"}, {Ref: "c"}}
	if got := recall(hits, want); got != 0.5 {
		t.Errorf("recall = %v, want 0.5", got)
	}
	if got := recall([]server.SearchHit{{Ref: "x"}}, want); got != 0 {
		t.Errorf("recall of a wrong top-K = %v, want 0", got)
	}
	many := make([]string, 12) // more neighbours than fit in a top-10
	for i := range many {
		many[i] = string(rune('a' + i))
	}
	var top []server.SearchHit
	for _, n := range many[:topK] {
		top = append(top, server.SearchHit{Ref: n})
	}
	if got := recall(top, many); got != 1 {
		t.Errorf("recall of a full top-10 = %v, want 1", got)
	}
}

func TestCheckMergeRejectsDifferences(t *testing.T) {
	want := []core.Result{{Ref: "a", Similarity: 0.75, Distance: 0.1}, {Ref: "b", Similarity: 0.5, Distance: 0.2}}
	got := []server.SearchHit{{Rank: 1, Ref: "a", Similarity: 0.75, Distance: 0.1}, {Rank: 2, Ref: "b", Similarity: 0.5, Distance: 0.2}}
	if err := checkMerge(got, want); err != nil {
		t.Fatalf("equal results rejected: %v", err)
	}
	swapped := []server.SearchHit{got[1], got[0]}
	shifted := slices.Clone(got)
	shifted[1].Similarity = 0.5000001
	for name, g := range map[string][]server.SearchHit{"order": swapped, "score": shifted, "short": got[:1]} {
		if checkMerge(g, want) == nil {
			t.Errorf("%s: differing merge accepted", name)
		}
	}
}

// TestDurabilityCheckFlagsLostRecords acks records into a served node,
// then runs the durability check — a reopen through WAL replay, without
// a snapshot — over one ingest whose records were written and one that
// claims a record which never was.
func TestDurabilityCheckFlagsLostRecords(t *testing.T) {
	topo, err := startTopology([]string{filepath.Join(t.TempDir(), "node0")}, false, &tracer{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer topo.close()
	var recs []core.Record
	for _, n := range []string{"r1", "r2"} {
		recs = append(recs, core.Record{Name: n, Data: []byte(strings.Repeat(n+" some text ", 20))})
	}
	if _, err := topo.nodes[0].eng.AddBatch(recs); err != nil {
		t.Fatal(err)
	}
	b := &bench{topo: topo, results: []result{
		{kind: opIngest, names: []string{"r1", "r2"}},
		{kind: opIngest, names: []string{"never-written"}},
	}}
	if err := b.checkDurable(); err != nil {
		t.Fatal(err)
	}
	if b.results[0].err != nil {
		t.Errorf("written records reported lost: %v", b.results[0].err)
	}
	if b.results[1].err == nil {
		t.Error("a record that was never written passed the durability check")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if p := percentile(xs, 0.5); p != 3 {
		t.Errorf("p50 = %v", p)
	}
	if p := percentile(xs, 0.9); p != 4.6 {
		t.Errorf("p90 = %v", p)
	}
	if p := percentile(nil, 0.5); p != 0 {
		t.Errorf("empty p50 = %v", p)
	}
}
