package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"testing"

	"sketchengine/internal/server"
)

// nearThresholdSeeds are corpus seeds on which per-backend LSH fallback
// scans made the merged cluster answer differ from a single node's: each
// backend's candidates fell short of K, so it returned an exact top-K,
// while the single node's candidates filled K and it skipped the scan.
var nearThresholdSeeds = []int64{2, 4, 6, 7, 8, 9, 10, 14}

// mutate returns a copy of base with each byte replaced, with
// probability rate, by a random lowercase letter.
func mutate(rng *rand.Rand, base []byte, rate float64) string {
	out := bytes.Clone(base)
	for i := range out {
		if rng.Float64() < rate {
			out[i] = byte('a' + rng.Intn(26))
		}
	}
	return string(out)
}

// textLen is the length of every generated record and query.
const textLen = 600

// randText returns textLen random lowercase letters.
func randText(rng *rand.Rand) []byte {
	out := make([]byte, textLen)
	for i := range out {
		out[i] = byte('a' + rng.Intn(26))
	}
	return out
}

// nearThresholdCorpus builds 30 records mutated 8–18% from one random
// base, and a query mutated 1% from it. At the test engine's 4-char
// shingles that spreads the records' similarity to the query around
// 0.5, the LSH threshold of its 64 slots (16 bands of 4 rows), so some
// records are candidates and some are not.
func nearThresholdCorpus(seed int64) (server.IngestRequest, server.SearchRequest) {
	rng := rand.New(rand.NewSource(seed))
	base := randText(rng)
	var ing server.IngestRequest
	for i := 0; i < 30; i++ {
		ing.Records = append(ing.Records, server.IngestRecord{
			Name: fmt.Sprintf("near-%02d", i),
			Data: mutate(rng, base, 0.08+0.10*rng.Float64()),
		})
	}
	return ing, server.SearchRequest{Name: "q", Data: mutate(rng, base, 0.01), K: 10, Mode: "lsh"}
}

// TestClusterMatchesSingleNodeLSH is TestClusterMatchesSingleNode in
// LSH mode, on corpora whose candidates fill K on a single node but not
// on any one backend: the coordinator's candidate wave must reproduce
// the single node's candidate top-K, not a merge of exact fallbacks.
func TestClusterMatchesSingleNodeLSH(t *testing.T) {
	for _, seed := range nearThresholdSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ing, search := nearThresholdCorpus(seed)
			single := newTestBackend(t)
			if resp, out := postJSON(t, single.ts.URL+"/v1/records", ing); resp.StatusCode != http.StatusOK {
				t.Fatalf("single-node ingest status = %d, body %s", resp.StatusCode, out)
			}
			_, want := postJSON(t, single.ts.URL+"/v1/search", search)
			if n := single.srv.Engine().Stats().LSHFallbacks; n != 0 {
				t.Fatalf("single node ran %d fallback scans; the corpus must fill K from candidates", n)
			}

			tc := newTestCluster(t, 3, 2)
			if resp, out := postJSON(t, tc.ts.URL+"/v1/records", ing); resp.StatusCode != http.StatusOK {
				t.Fatalf("cluster ingest status = %d, body %s", resp.StatusCode, out)
			}
			resp, got := postJSON(t, tc.ts.URL+"/v1/search", search)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("cluster search status = %d, body %s", resp.StatusCode, got)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("cluster search differs from single node:\n cluster: %s\n single:  %s", got, want)
			}
		})
	}
}

// plantCluster ingests filler unrelated records plus 1%-mutated copies
// of one random base, choosing the copies' names by their replica sets
// so that each of the three backend pairs holds 4 of them: every
// backend then holds 8 of the 12 copies, fewer than K=10, while the
// cluster holds more. It returns a query near the base (a hit) and an
// unrelated one that no record shares a band with (a miss).
func plantCluster(t testing.TB, tc *testCluster, filler int) (hit, miss server.SearchRequest) {
	t.Helper()
	if len(tc.backends) != 3 || tc.coord.cfg.Replication != 2 {
		t.Fatalf("plantCluster wants 3 backends at R=2")
	}
	const perPair = 4
	rng := rand.New(rand.NewSource(1))
	base := randText(rng)
	var recs []server.IngestRecord
	placed := map[string]int{}
	for i := 0; len(recs) < 3*perPair; i++ {
		name := fmt.Sprintf("planted-%03d", i)
		pair := slices.Sorted(slices.Values(tc.coord.Ring().Replicas(name)))
		key := strings.Join(pair, ",")
		if placed[key] == perPair {
			continue
		}
		placed[key]++
		recs = append(recs, server.IngestRecord{Name: name, Data: mutate(rng, base, 0.01)})
	}
	for i := 0; i < filler; i++ {
		recs = append(recs, server.IngestRecord{Name: fmt.Sprintf("filler-%05d", i), Data: string(randText(rng))})
	}
	for len(recs) > 0 {
		n := min(len(recs), 500)
		resp, out := postJSON(t, tc.ts.URL+"/v1/records", server.IngestRequest{Records: recs[:n]})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest status = %d, body %s", resp.StatusCode, out)
		}
		recs = recs[n:]
	}
	hit = server.SearchRequest{Name: "q", Data: mutate(rng, base, 0.01), K: 10}
	miss = server.SearchRequest{Name: "q", Data: string(randText(rng)), K: 10}
	return hit, miss
}

// backendStats reads every backend's /stats.
func backendStats(t *testing.T, tc *testCluster) []server.StatsResponse {
	t.Helper()
	out := make([]server.StatsResponse, len(tc.backends))
	for i, b := range tc.backends {
		_, body := getBody(t, b.ts.URL+"/stats")
		if err := json.Unmarshal(body, &out[i]); err != nil {
			t.Fatalf("backend stats %s: %v", body, err)
		}
	}
	return out
}

// TestCoordinatorSearchWaves: an LSH hit whose candidates fill K across
// the cluster, though no single backend holds K of them, takes one
// candidate wave and costs no backend a scan; a miss with no candidates
// takes the candidate wave plus one exact fill wave; an exact search
// takes one wave.
func TestCoordinatorSearchWaves(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	hit, miss := plantCluster(t, tc, 40)

	// waves posts req and checks how many search requests each backend
	// served for it and the coordinator's fill-wave total after it.
	waves := func(req server.SearchRequest, perBackend, fills int64) server.SearchResponse {
		t.Helper()
		before := backendStats(t, tc)
		resp, body := postJSON(t, tc.ts.URL+"/v1/search", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search status = %d, body %s", resp.StatusCode, body)
		}
		var sr server.SearchResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		for i, after := range backendStats(t, tc) {
			if got := after.Requests.Searches - before[i].Requests.Searches; got != perBackend {
				t.Errorf("backend %d served %d search requests, want %d", i, got, perBackend)
			}
			if after.Engine.LSHFallbacks != 0 {
				t.Errorf("backend %d ran %d LSH fallback scans, want 0", i, after.Engine.LSHFallbacks)
			}
		}
		_, raw := getBody(t, tc.ts.URL+"/stats")
		var st StatsResponse
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		if st.SearchFillWaves != fills {
			t.Errorf("search_fill_waves = %d, want %d", st.SearchFillWaves, fills)
		}
		return sr
	}

	sr := waves(hit, 1, 0)
	if sr.Mode != "lsh" || len(sr.Results) != 10 {
		t.Fatalf("hit = %+v, want 10 lsh results", sr)
	}
	for _, h := range sr.Results {
		if !strings.HasPrefix(h.Ref, "planted-") {
			t.Errorf("hit returned %s, want only planted copies", h.Ref)
		}
	}
	for i, st := range backendStats(t, tc) {
		if st.Engine.LSHCandidates == 0 || st.Engine.LSHCandidates >= 10 {
			t.Errorf("backend %d probed %d candidates, want 1..9 (fewer than K)", i, st.Engine.LSHCandidates)
		}
	}

	sr = waves(miss, 2, 1)
	if sr.Mode != "lsh" || len(sr.Results) != 10 {
		t.Fatalf("miss = %+v, want the fill wave's 10 results under the candidate wave's lsh mode", sr)
	}

	exact := hit
	exact.Mode = "exact"
	if sr = waves(exact, 1, 1); sr.Mode != "exact" {
		t.Fatalf("exact search reported mode %q", sr.Mode)
	}

	_, metrics := getBody(t, tc.ts.URL+"/metrics")
	if !strings.Contains(string(metrics), "sketchengine_cluster_search_fill_waves_total 1\n") {
		t.Errorf("/metrics missing the fill-wave counter:\n%s", metrics)
	}
	_, metrics = getBody(t, tc.backends[0].ts.URL+"/metrics")
	if !strings.Contains(string(metrics), "# TYPE sketchengine_lsh_candidates_total counter") {
		t.Errorf("backend /metrics missing the candidate counter:\n%s", metrics)
	}
}

// BenchmarkCoordinatorSearch times one search through a coordinator
// over three in-process backends at R=2, each holding 2/3 of a 12-copy
// planted cluster among 3000 filler records. A hit fills K from the
// candidate wave; a miss also takes the exact fill wave.
// backend_calls/op counts the coordinator's backend requests.
func BenchmarkCoordinatorSearch(b *testing.B) {
	tc := newTestCluster(b, 3, 2)
	hit, miss := plantCluster(b, tc, 3000)
	calls := func() (n int64) {
		for _, be := range tc.coord.backendList() {
			n += be.requests.Load()
		}
		return n
	}
	for _, bc := range []struct {
		name string
		req  server.SearchRequest
	}{{"hit", hit}, {"miss", miss}} {
		b.Run(bc.name, func(b *testing.B) {
			raw, err := json.Marshal(bc.req)
			if err != nil {
				b.Fatal(err)
			}
			start := calls()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := http.Post(tc.ts.URL+"/v1/search", "application/json", bytes.NewReader(raw))
				if err != nil {
					b.Fatal(err)
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("search status = %d", resp.StatusCode)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(calls()-start)/float64(b.N), "backend_calls/op")
		})
	}
}
