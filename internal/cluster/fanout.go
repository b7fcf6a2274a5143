package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"

	"sketchengine/internal/core"
	"sketchengine/internal/server"
)

// searchCall is one backend's slot in a search wave: filled by the
// first pass or the retry pass, whichever reaches the backend.
type searchCall struct {
	b    *backend
	resp server.SearchResponse
	ok   bool
	err  error
}

// handleSearch scatter-gathers a search. Every backend holds a shard
// of the corpus, so the query goes to all of them (the ring is not
// consulted: it maps names, and a search has no name). The per-backend
// top-Ks are concatenated, deduped by ref (replication means up to
// Replication copies of every hit), and reduced with core.MergeTopK —
// the same bounded-heap merge and total order the in-process per-shard
// scan uses.
//
// An LSH search takes one or two waves, so that its answer is
// byte-identical to a single node's over the same corpus, as an exact
// search's is. The candidate wave asks every backend for the top-K of
// its LSH candidates with no fallback scan. Candidacy is a per-record
// band-key test, so the deduped union holds exactly the candidates a
// single node would score: when it has at least K refs, its merge is
// the single node's answer, and no backend has scanned its corpus.
// Only when it has fewer does the fill wave ask every backend for exact
// top-Ks, whose merge equals the single node's fallback (the exact
// top-K over all rows). The response keeps the candidate wave's mode.
// An exact search, or one that itself asks for candidates only, takes
// one wave.
//
// Fault handling is per wave; see searchWave. Only when the final
// non-responder count reaches the replication factor could a whole
// replica set be unrepresented — then, and only then, the response
// degrades to "partial": true. Anything less and every record still
// has at least one responding replica, so the result is provably
// complete and is returned unflagged.
func (c *Coordinator) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req server.SearchRequest
	if !c.decodeBody(w, r, &req) {
		return
	}
	if req.Mode != "" {
		// Fail a bad mode here: fanning it out would return backend 400s
		// dressed up as a cluster fault.
		if _, err := core.ParseSearchMode(req.Mode); err != nil {
			server.WriteError(w, http.StatusBadRequest, server.CodeBadRequest, err.Error())
			return
		}
	}
	k := req.K
	if k == 0 {
		k = 10
	}
	if k < 0 {
		server.WriteError(w, http.StatusBadRequest, server.CodeBadRequest,
			fmt.Sprintf("search: k must be positive, got %d", k))
		return
	}
	c.metrics.searches.Add(1)
	release := c.acquireFanout()
	if release == nil {
		w.Header().Set("Retry-After", "1")
		server.WriteError(w, http.StatusServiceUnavailable, server.CodeOverloaded,
			fmt.Sprintf("search: coordinator at fan-out capacity (%d); retry later", c.cfg.MaxFanout))
		return
	}
	defer release()

	// Backends ignore candidates_only in exact mode, so the flag is
	// safe on every first wave; the mode they report decides the fill
	// (and is empty when no backend answered).
	wave := req
	wave.CandidatesOnly = true
	calls, responded := c.searchWave(r.Context(), &wave)
	pooled, mode := gatherSearch(calls, req.Name)
	if !req.CandidatesOnly && mode == string(core.ModeLSH) && len(pooled) < k {
		c.metrics.fillWaves.Add(1)
		wave.Mode, wave.CandidatesOnly = string(core.ModeExact), false
		calls, responded = c.searchWave(r.Context(), &wave)
		pooled, _ = gatherSearch(calls, req.Name)
	}
	if responded == 0 {
		server.WriteError(w, http.StatusBadGateway, CodeBackendDown, "search: no backend responded")
		return
	}
	partial := len(calls)-responded >= c.cfg.Replication
	if partial {
		c.metrics.partials.Add(1)
	}

	merged := core.MergeTopK(pooled, k)
	ring, _ := c.rings()
	c.offerSearchRepairs(ring, calls, merged, k)
	// Zero-hit responses must encode as "results":[], matching the
	// single-node server (nil would marshal as null).
	hits := make([]server.SearchHit, 0, len(merged))
	for i, res := range merged {
		hits = append(hits, server.SearchHit{Rank: i + 1, Ref: res.Ref, Similarity: res.Similarity, Distance: res.Distance})
	}
	server.WriteJSON(w, http.StatusOK, server.SearchResponse{
		Query:   req.Name,
		Mode:    mode,
		Results: hits,
		Partial: partial,
	})
}

// searchWave sends req to every backend and returns each one's outcome
// plus how many responded. Backends marked down are skipped in the
// first pass but, together with backends that failed it, get one
// retry: the probe view lags reality, and a replica's partner having
// answered does not excuse losing the records they do not share. A
// whole-cluster outage skips the retry, and an exhausted retry budget
// degrades to partial rather than joining a retry storm against
// recovering backends.
func (c *Coordinator) searchWave(ctx context.Context, req *server.SearchRequest) ([]*searchCall, int) {
	backends := c.backendList()
	calls := make([]*searchCall, len(backends))
	var first []*searchCall
	for i, b := range backends {
		calls[i] = &searchCall{b: b}
		if b.up.Load() {
			first = append(first, calls[i])
		}
	}
	c.scatterSearch(ctx, first, req)

	var retry []*searchCall
	for _, call := range calls {
		if !call.ok {
			retry = append(retry, call)
		}
	}
	if len(retry) > 0 && len(retry) < len(calls) && c.budget.allow(len(retry)) {
		c.metrics.retries.Add(int64(len(retry)))
		c.scatterSearch(ctx, retry, req)
	}
	responded := 0
	for _, call := range calls {
		if call.ok {
			responded++
		}
	}
	return calls, responded
}

// gatherSearch concatenates the responding backends' hits, deduped by
// ref keeping the best-scored copy, and returns them with the mode the
// first responder reported. Replicated copies of a hit are byte-equal,
// so "best" only matters if replicas diverged mid-write; keeping the
// max keeps the answer monotone with the most complete replica.
func gatherSearch(calls []*searchCall, query string) ([]core.Result, string) {
	var pooled []core.Result
	seen := make(map[string]int)
	mode := ""
	for _, call := range calls {
		if !call.ok {
			continue
		}
		if mode == "" {
			mode = call.resp.Mode
		}
		for _, hit := range call.resp.Results {
			if j, dup := seen[hit.Ref]; dup {
				if hit.Similarity > pooled[j].Similarity {
					pooled[j].Similarity = hit.Similarity
					pooled[j].Distance = hit.Distance
				}
				continue
			}
			seen[hit.Ref] = len(pooled)
			pooled = append(pooled, core.Result{
				Query:      query,
				Ref:        hit.Ref,
				Similarity: hit.Similarity,
				Distance:   hit.Distance,
			})
		}
	}
	return pooled, mode
}

// offerSearchRepairs turns search results into anti-entropy signals: a
// merged hit absent from a responding replica that the ring says holds
// it — when that replica's list provably had room (fewer than k hits,
// or a strictly worse-scored tail) — is replica disagreement, and the
// record goes to the read-repair queue. Candidate-pruning modes can
// legitimately miss a hit the replica does hold, so this is a
// heuristic; a false positive only costs the repair worker one probe
// that finds nothing to fix.
func (c *Coordinator) offerSearchRepairs(ring *Ring, calls []*searchCall, merged []core.Result, k int) {
	byAddr := make(map[string]*searchCall, len(calls))
	responded := 0
	for _, call := range calls {
		if call.ok {
			byAddr[call.b.addr] = call
			responded++
		}
	}
	if responded < 2 {
		return // disagreement needs two answers
	}
	for _, hit := range merged {
		for _, addr := range ring.Replicas(hit.Ref) {
			call, ok := byAddr[addr]
			if !ok {
				continue
			}
			found := false
			for _, res := range call.resp.Results {
				if res.Ref == hit.Ref {
					found = true
					break
				}
			}
			if found {
				continue
			}
			hadRoom := len(call.resp.Results) < k ||
				(len(call.resp.Results) > 0 && call.resp.Results[len(call.resp.Results)-1].Similarity < hit.Similarity)
			if hadRoom {
				c.repairs.offer(hit.Ref)
				break
			}
		}
	}
}

// scatterSearch sends req to every call's backend concurrently, each
// bounded by the fan-out timeout, and records the outcome in place.
func (c *Coordinator) scatterSearch(ctx context.Context, wave []*searchCall, req *server.SearchRequest) {
	var wg sync.WaitGroup
	for _, call := range wave {
		wg.Add(1)
		go func(call *searchCall) {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(ctx, c.cfg.FanoutTimeout)
			defer cancel()
			call.resp = server.SearchResponse{}
			call.err = c.client.do(cctx, call.b, "POST", "/v1/search", req, &call.resp)
			call.ok = call.err == nil
		}(call)
	}
	wg.Wait()
}
