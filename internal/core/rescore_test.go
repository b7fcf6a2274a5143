package core

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// rescoreCorpus builds a tiered index at the given prefilter width over
// planted clusters of varied size (near-duplicates at several mutation
// rates, plus exact copies that tie on similarity and rank by name),
// random filler, a few records too short to shingle, and some
// tombstoned rows. It returns the engine, the live records, and the
// cluster bases.
func rescoreCorpus(t *testing.T, bits int) (*Engine, map[string]Record, [][]byte) {
	t.Helper()
	eng, err := NewEngine(Options{
		IndexName: "rescore", Bits: bits, Shards: 4,
		Tiered: true, DataDir: t.TempDir(), SegmentRows: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Index().Close() })
	rng := rand.New(rand.NewSource(int64(bits)))
	live := make(map[string]Record)
	var recs []Record
	var bases [][]byte
	for ci, size := range []int{1, 2, 5, 13, 29, 60} {
		base := benchData(512, int64(1000+ci))
		bases = append(bases, base)
		for j := 0; j < size; j++ {
			data := slices.Clone(base)
			// j%4 == 0 leaves exact copies; the rest spread similarity.
			for m := 0; m < (j%4)*(1+ci); m++ {
				data[rng.Intn(len(data))] = byte('a' + rng.Intn(26))
			}
			recs = append(recs, Record{Name: fmt.Sprintf("c%d-%03d", ci, rng.Intn(1000)*100+j), Data: data})
		}
	}
	for i := 0; i < 400; i++ {
		recs = append(recs, Record{Name: fmt.Sprintf("f-%05d", rng.Intn(100000)*10+i%10), Data: benchData(256, int64(5000+i))})
	}
	for i := 0; i < 4; i++ {
		recs = append(recs, Record{Name: fmt.Sprintf("tiny-%d", i), Data: []byte("ab")})
	}
	for _, r := range recs {
		added, err := eng.Add(r)
		if err != nil {
			t.Fatal(err)
		}
		if added {
			live[r.Name] = r
		}
	}
	// Tombstone every 7th record, cluster members included.
	i := 0
	for _, r := range recs {
		if _, ok := live[r.Name]; ok && i%7 == 3 {
			if _, err := eng.Delete(r.Name); err != nil {
				t.Fatal(err)
			}
			delete(live, r.Name)
		}
		i++
	}
	return eng, live, bases
}

// bruteForceRanking ranks every live sketch against q by full-width
// Similarity under resultBetter, skipping self-hits: the reference the
// tiered rescore must reproduce exactly. The answer for (K, minSim) is
// the first K entries of its prefix with similarity >= minSim.
func bruteForceRanking(t *testing.T, live map[string]*Sketch, q *Sketch) []Result {
	t.Helper()
	var all []Result
	for name, s := range live {
		if name == q.Name && slices.Equal(s.Signature, q.Signature) {
			continue
		}
		sim, err := Similarity(q, s)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, Result{Query: q.Name, Ref: name, Similarity: sim, Distance: 1 - sim})
	}
	sortResults(all)
	return all
}

// TestTieredRescoreExact: the rescore's early stop, tie-at-bound skip
// and sparse slot verification are all exact, so tiered SearchTopK must
// equal a brute-force full-width ranking at every K and minSim, and
// SearchTopKLSH must too on queries whose candidates cannot fill K
// (where the fallback scans the rest).
func TestTieredRescoreExact(t *testing.T) {
	for _, bits := range []int{8, 16, 64} {
		eng, live, bases := rescoreCorpus(t, bits)
		ix := eng.Index()
		sk := eng.Sketcher()
		sketches := make(map[string]*Sketch, len(live))
		for name, rec := range live {
			sketches[name] = sk.Sketch(rec)
		}
		var hits []*Sketch
		for i, base := range bases {
			hits = append(hits, sk.Sketch(Record{Name: fmt.Sprintf("hit-%d", i), Data: base}))
		}
		for _, name := range slices.Sorted(maps.Keys(live))[:3] {
			hits = append(hits, sketches[name]) // self-hit must stay excluded
		}
		var misses []*Sketch
		for i := 0; i < 3; i++ {
			misses = append(misses, sk.Sketch(Record{Name: fmt.Sprintf("miss-%d", i), Data: benchData(256, int64(90000+i))}))
		}
		// Inline shard scans: the per-shard rescore is the same either
		// way, and fan-out makes -race -cover runs of this test crawl.
		pool := NewPool(1)
		for _, q := range append(hits, misses...) {
			ranking := bruteForceRanking(t, sketches, q)
			modes := []string{"exact"}
			if slices.Contains(misses, q) {
				modes = append(modes, "lsh")
			}
			for _, topK := range []int{1, 10, 37} {
				for _, minSim := range []float64{0, 0.05, 0.3} {
					want := ranking[:0:0]
					for _, r := range ranking {
						if r.Similarity < minSim || len(want) == topK {
							break
						}
						want = append(want, r)
					}
					for _, mode := range modes {
						search, before := SearchTopK, ix.lshFallbacks.Load()
						if mode == "lsh" {
							search = SearchTopKLSH
						}
						got, err := search(ix, q, topK, minSim, pool)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(got, want) {
							t.Fatalf("bits=%d %s q=%s K=%d minSim=%v:\n got %v\nwant %v", bits, mode, q.Name, topK, minSim, got, want)
						}
						if mode == "lsh" && ix.lshFallbacks.Load() == before {
							t.Fatalf("bits=%d lsh q=%s K=%d minSim=%v: fallback did not fire", bits, q.Name, topK, minSim)
						}
					}
				}
			}
		}
	}
}

// TestTieredRescoreSkipsUnplaceableRows: on a query with no neighbours
// every row's full score is 0, so once K results are held only rows
// with a packed lane match, or a name that wins the tie-break, are
// read. An 8-bit prefilter over 128 slots leaves ~61% of random rows
// with no lane match.
func TestTieredRescoreSkipsUnplaceableRows(t *testing.T) {
	eng, live, _ := rescoreCorpus(t, 8)
	ix := eng.Index()
	q := eng.Sketcher().Sketch(Record{Name: "miss", Data: benchData(256, 90000)})
	before := ix.Tier().Rescored
	if _, err := SearchTopK(ix, q, 10, 0, nil); err != nil {
		t.Fatal(err)
	}
	if read := ix.Tier().Rescored - before; read == 0 || read > uint64(len(live))*3/4 {
		t.Fatalf("miss search read %d of %d rows full-width", read, len(live))
	}
}

// TestTieredSearchAllocs: a steady-state tiered search allocates the
// slice it returns plus the two scan closures SearchTopKCtx builds; the
// survivor sort reuses pooled buffers and adds nothing.
func TestTieredSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items, so allocations are not steady")
	}
	eng, _, bases := rescoreCorpus(t, 8)
	ix := eng.Index()
	sk := eng.Sketcher()
	pool := NewPool(1) // inline scan: no per-shard goroutines
	for _, q := range []*Sketch{
		sk.Sketch(Record{Name: "hit", Data: bases[len(bases)-1]}),
		sk.Sketch(Record{Name: "miss", Data: benchData(256, 90000)}),
	} {
		search := func() {
			if _, err := SearchTopK(ix, q, 10, 0, pool); err != nil {
				t.Fatal(err)
			}
		}
		search() // warm the pooled scratch
		if allocs := testing.AllocsPerRun(50, search); allocs > 3 {
			t.Fatalf("tiered search %s: %v allocs/op, want <= 3", q.Name, allocs)
		}
	}
}

// TestTieredBudgetReadsBestBoundFirst: survivors are read in descending
// packed-score order, so even a budget of one read per shard finds an
// exact copy of the query when one is indexed.
func TestTieredBudgetReadsBestBoundFirst(t *testing.T) {
	eng, _, bases := rescoreCorpus(t, 8)
	ix := eng.Index()
	ix.SetBudget(1)
	q := eng.Sketcher().Sketch(Record{Name: "hit", Data: bases[len(bases)-1]})
	for mode, search := range map[string]func(*Index, *Sketch, int, float64, *Pool) ([]Result, error){
		"exact": SearchTopK, "lsh": SearchTopKLSH,
	} {
		got, err := search(ix, q, 1, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0].Similarity != 1 {
			t.Fatalf("%s: budget-1 search returned %v, want an exact copy", mode, got)
		}
	}
}
