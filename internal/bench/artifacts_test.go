package bench

import (
	"encoding/json"
	"os"
	"testing"
)

// readArtifact decodes a checked-in BENCH_*.json artifact from the
// repository root into v, skipping the test when the file is absent.
func readArtifact(t *testing.T, name string, v any) {
	t.Helper()
	data, err := os.ReadFile("../../" + name)
	if err != nil {
		t.Skipf("%s not present: %v", name, err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s does not parse: %v", name, err)
	}
}

// TestCacheArtifactParses keeps the checked-in BENCH_cache.json honest:
// the warm pass must answer exactly like the cold pass and be served
// entirely from the plan and LLM caches.
func TestCacheArtifactParses(t *testing.T) {
	var res CacheBenchResult
	readArtifact(t, "BENCH_cache.json", &res)
	if res.Dataset == "" || res.Queries <= 0 {
		t.Fatalf("artifact missing header fields: %+v", res)
	}
	if res.AnswerMismatches != 0 {
		t.Errorf("%d warm answers differ from cold", res.AnswerMismatches)
	}
	if res.PlanCacheHitRate != 1 || res.LLMCacheHitRate != 1 {
		t.Errorf("warm hit rates plan=%v llm=%v, want 1 and 1", res.PlanCacheHitRate, res.LLMCacheHitRate)
	}
}

// TestFaultsArtifactParses keeps the checked-in BENCH_faults.json honest:
// every fault sweep row must have answered all of its queries.
func TestFaultsArtifactParses(t *testing.T) {
	var res FaultBenchResult
	readArtifact(t, "BENCH_faults.json", &res)
	if res.Dataset == "" || len(res.Rows) == 0 {
		t.Fatalf("artifact missing header fields or rows: %+v", res)
	}
	for _, r := range res.Rows {
		if r.Failed != 0 {
			t.Errorf("row %s@%.2f: %d of %d queries failed", r.Kind, r.Rate, r.Failed, r.Queries)
		}
	}
}

// TestBatchArtifactParses keeps the checked-in BENCH_batch.json honest:
// at every concurrency level batching on and off must answer
// identically.
func TestBatchArtifactParses(t *testing.T) {
	var res BatchResult
	readArtifact(t, "BENCH_batch.json", &res)
	if res.Dataset == "" || len(res.Points) == 0 {
		t.Fatalf("artifact missing header fields or points: %+v", res)
	}
	for _, p := range res.Points {
		if !p.AnswersIdentical {
			t.Errorf("concurrency %d: answers differ between batching on and off", p.Concurrency)
		}
	}
}

// TestScaleArtifactParses keeps the checked-in BENCH_scale.json honest:
// every cluster width must answer exactly like the 1-machine run.
func TestScaleArtifactParses(t *testing.T) {
	var res ScaleResult
	readArtifact(t, "BENCH_scale.json", &res)
	if res.Dataset == "" || len(res.Points) == 0 {
		t.Fatalf("artifact missing header fields or points: %+v", res)
	}
	for _, p := range res.Points {
		if !p.AnswersMatchM1 {
			t.Errorf("%d machines: answers differ from the 1-machine run", p.Machines)
		}
	}
}
