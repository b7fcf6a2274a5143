package main

import (
	"fmt"

	"sketchengine/internal/core"
	"sketchengine/internal/server"
)

// checkHits checks the shape of one search reply: at most k hits, ranks
// 1..n, distinct refs, similarity in [0, 1], and best-first order.
func checkHits(hits []server.SearchHit, k int) error {
	if len(hits) > k {
		return fmt.Errorf("%d hits for k=%d", len(hits), k)
	}
	seen := make(map[string]bool, len(hits))
	for i, h := range hits {
		switch {
		case h.Rank != i+1:
			return fmt.Errorf("hit %d has rank %d", i, h.Rank)
		case seen[h.Ref]:
			return fmt.Errorf("ref %q appears twice", h.Ref)
		case !(h.Similarity >= 0 && h.Similarity <= 1):
			return fmt.Errorf("ref %q has similarity %v outside [0,1]", h.Ref, h.Similarity)
		case i > 0 && h.Similarity > hits[i-1].Similarity:
			return fmt.Errorf("rank %d (%v) scores above rank %d (%v)", h.Rank, h.Similarity, hits[i-1].Rank, hits[i-1].Similarity)
		}
		seen[h.Ref] = true
	}
	return nil
}

// recall is how many of want — a hit query's planted neighbours, known
// from the generator — appear among hits, over the most that fit in a
// top-K.
func recall(hits []server.SearchHit, want []string) float64 {
	if len(want) == 0 {
		return 0
	}
	got := make(map[string]bool, len(hits))
	for _, h := range hits {
		got[h.Ref] = true
	}
	found := 0
	for _, name := range want {
		if got[name] {
			found++
		}
	}
	return float64(found) / float64(min(len(want), topK))
}

// checkMerge checks that a coordinator's merged top-K equals a single
// node's over the same corpus: same refs in the same order with
// bit-identical scores.
func checkMerge(got []server.SearchHit, want []core.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("coordinator returned %d hits, single node %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Ref != want[i].Ref || got[i].Similarity != want[i].Similarity || got[i].Distance != want[i].Distance {
			return fmt.Errorf("rank %d: coordinator %s (%v, %v), single node %s (%v, %v)", i+1,
				got[i].Ref, got[i].Similarity, got[i].Distance, want[i].Ref, want[i].Similarity, want[i].Distance)
		}
	}
	return nil
}

// missing returns the acknowledged names that has does not find.
func missing(has func(string) bool, names []string) []string {
	var out []string
	for _, n := range names {
		if !has(n) {
			out = append(out, n)
		}
	}
	return out
}
