package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sketchengine/internal/core"
)

func tieredTestEngine(t *testing.T, dir string) *core.Engine {
	t.Helper()
	eng, err := core.NewEngine(core.Options{
		K: 4, SignatureSize: 64, IndexName: "tieredsrv", Shards: 4,
		Bits: 8, Tiered: true, DataDir: dir, SegmentRows: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Index().Close() })
	return eng
}

// TestTieredSnapshotLifecycle: a server over a tiered engine snapshots
// through SaveDir — the first snapshot materializes the manifest,
// ingest survives Close, and the committed directory reloads with every
// acknowledged record.
func TestTieredSnapshotLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, err := New(tieredTestEngine(t, dir), Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/records",
		ingestBody("alpha", "beta", "gamma", "delta"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d, body %s", resp.StatusCode, body)
	}

	// /stats surfaces the tier: the prefilter width and resident/mapped
	// byte split ride along inside the engine block.
	resp, err = ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", resp.StatusCode)
	}
	var st struct {
		Engine struct {
			Tier *core.TierStats `json:"tier"`
		} `json:"engine"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("stats body %s: %v", body, err)
	}
	if st.Engine.Tier == nil || st.Engine.Tier.PrefilterBits != 8 {
		t.Fatalf("stats tier = %+v, want an 8-bit prefilter block", st.Engine.Tier)
	}

	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, core.ManifestFile)); err != nil {
		t.Fatalf("shutdown snapshot wrote no manifest: %v", err)
	}
	ix, err := core.Open(dir)
	if err != nil {
		t.Fatalf("Open after shutdown: %v", err)
	}
	defer ix.Close()
	if ix.Len() != 4 || ix.Get("delta") == nil {
		t.Fatalf("reloaded tiered index: len=%d", ix.Len())
	}
}

// TestTieredConfigValidation: DataDir must describe the engine it is
// paired with — a non-tiered engine or a mismatched directory is a
// configuration bug New refuses.
func TestTieredConfigValidation(t *testing.T) {
	if _, err := New(testEngine(t), Config{DataDir: t.TempDir()}); err == nil {
		t.Fatal("New accepted DataDir on a non-tiered engine")
	}
	dir := t.TempDir()
	if _, err := New(tieredTestEngine(t, dir), Config{DataDir: t.TempDir()}); err == nil {
		t.Fatal("New accepted a DataDir that is not the index's data directory")
	}
	s, err := New(tieredTestEngine(t, dir), Config{DataDir: dir})
	if err != nil {
		t.Fatalf("matching DataDir rejected: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTierCountersExported: the tier's prefilter/rescore counters and
// the LSH fallback-scan counter reach both /stats and /metrics with the
// same values, and the tier series are absent on a non-tiered engine.
func TestTierCountersExported(t *testing.T) {
	dir := t.TempDir()
	s, err := New(tieredTestEngine(t, dir), Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	client := ts.Client()

	if resp, body := postJSON(t, client, ts.URL+"/v1/records", ingestBody("alpha", "beta", "gamma", "delta")); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d, body %s", resp.StatusCode, body)
	}
	// Four records cannot fill K=10, so the LSH search falls back to
	// scanning whatever its probe did not reach.
	if resp, body := postJSON(t, client, ts.URL+"/v1/search", SearchRequest{
		Name: "q", Data: "an unrelated query sharing nothing with the corpus", K: 10, Mode: "lsh",
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("search status = %d, body %s", resp.StatusCode, body)
	}

	_, body := getBody(t, client, ts.URL+"/stats")
	var st struct {
		Engine struct {
			LSHFallbacks uint64          `json:"lsh_fallback_scans"`
			Tier         *core.TierStats `json:"tier"`
		} `json:"engine"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("stats body %s: %v", body, err)
	}
	tier := st.Engine.Tier
	if st.Engine.LSHFallbacks != 1 || tier == nil || tier.PrefilterScanned == 0 || tier.Rescored == 0 {
		t.Fatalf("stats after one fallback search: fallbacks=%d tier=%+v", st.Engine.LSHFallbacks, tier)
	}

	_, raw := getBody(t, client, ts.URL+"/metrics")
	metrics := string(raw)
	for _, want := range []string{
		"# TYPE sketchengine_tier_rescored_total counter",
		fmt.Sprintf("sketchengine_tier_prefilter_scanned_total %d\n", tier.PrefilterScanned),
		fmt.Sprintf("sketchengine_tier_prefilter_survived_total %d\n", tier.PrefilterSurvived),
		fmt.Sprintf("sketchengine_tier_rescored_total %d\n", tier.Rescored),
		"sketchengine_tier_read_errors_total 0\n",
		"sketchengine_lsh_fallback_scans_total 1\n",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, metrics)
		}
	}

	_, plain := newTestServer(t, Config{})
	_, raw = getBody(t, plain.Client(), plain.URL+"/metrics")
	if strings.Contains(string(raw), "sketchengine_tier_") {
		t.Fatalf("non-tiered metrics carry tier series:\n%s", raw)
	}
	if !strings.Contains(string(raw), "sketchengine_lsh_fallback_scans_total 0\n") {
		t.Fatalf("non-tiered metrics missing the fallback counter:\n%s", raw)
	}
}
