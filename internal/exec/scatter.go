package exec

import (
	"context"
	"fmt"

	"unify/internal/check"
	"unify/internal/core"
	"unify/internal/llm"
	"unify/internal/obs"
	"unify/internal/ops"
	"unify/internal/values"
)

// mergeExact classifies the scatter merges the executor knows how to
// perform: true means the merge is pure computation whose output
// accounts for exactly the per-shard partials (filter concat, count/sum
// addition, max/min extreme); false marks combiners (top-k) whose merge
// re-ranks the union and may shrink it. Physicals absent from this map
// must never be scattered.
var mergeExact = map[string]bool{
	"SemanticFilter": true,
	"SemanticCount":  true,
	"SemanticSum":    true,
	"SemanticMax":    true,
	"SemanticMin":    true,
	"SemanticTopK":   false,
}

// runScatter executes one optimizer-marked node as a scatter/merge over
// the corpus shards: the document input splits by shard, each slice runs
// the chosen physical against its shard's machine, and the partials
// merge deterministically (the scheduler places shard s's calls on
// machine s; see Executor.tasks). Any error aborts the whole scatter —
// the caller falls back to ordinary unscattered execution, so scatter
// never costs an answer.
func (e *Executor) runScatter(ctx context.Context, n *core.Node, phys *ops.Physical, m int,
	inputs []values.Value, span *obs.Span, inCard int) (*NodeResult, error) {

	sh := e.Sharding
	if sh == nil || sh.N != m {
		return nil, fmt.Errorf("exec: no sharding of width %d", m)
	}
	if phys.Name != n.Phys {
		return nil, fmt.Errorf("exec: scatter wants %q but %q leads", n.Phys, phys.Name)
	}
	if _, ok := mergeExact[phys.Name]; !ok || !phys.LLMBased {
		return nil, fmt.Errorf("exec: %q has no scatter merge", phys.Name)
	}
	if len(inputs) == 0 || inputs[0].Kind != values.Docs || len(inputs[0].DocIDs) == 0 {
		return nil, fmt.Errorf("exec: scatter needs a non-empty document input")
	}

	shards := sh.Split(inputs[0].DocIDs)
	// One fault budget for the whole node: shard failures degrade exactly
	// like batch failures of the unscattered run.
	fb := ops.NewFaultBudget(e.NodeErrorBudget)
	shardCalls := make([][]llm.Call, m)
	partials := make([]values.Value, m)
	ran := make([]bool, m)
	var all []llm.Call
	viewHits := 0
	for s, ids := range shards {
		if len(ids) == 0 {
			continue // empty shard: identity partial
		}
		env, rec := e.env(span, fb)
		sin := make([]values.Value, len(inputs))
		copy(sin, inputs)
		sin[0] = values.NewDocs(ids)
		v, err := phys.Run(ctx, env, n.Args, sin)
		if err != nil {
			return nil, fmt.Errorf("exec: shard %d: %w", s, err)
		}
		viewHits += env.ViewHits()
		partials[s] = v
		ran[s] = true
		shardCalls[s] = rec.Calls()
		all = append(all, shardCalls[s]...)
	}

	merged, mergeCalls, perShard, mergedCount, err := e.mergeShards(ctx, n, phys, span, inputs[0].DocIDs, shards, partials, ran, fb)
	if err != nil {
		return nil, err
	}
	all = append(all, mergeCalls...)
	if e.StrictChecks {
		vs := check.ShardComplete(phys.Name, m, perShard, mergedCount, mergeExact[phys.Name])
		if err := check.Fail("exec: scatter "+phys.Name, vs, span); err != nil {
			return nil, err
		}
	}

	nr := &NodeResult{
		NodeID:      n.ID,
		Op:          n.Op,
		Phys:        phys.Name,
		Value:       merged,
		Calls:       all,
		InCard:      inCard,
		SkippedDocs: fb.Skipped(),
		ViewHits:    viewHits,
		ShardCalls:  shardCalls,
		MergeCalls:  mergeCalls,
		Span:        span,
	}
	e.finish(nr, phys, inCard)
	return nr, nil
}

// mergeShards reduces per-shard partials to the node's value. Merges are
// deterministic: filters restore the original input order, aggregates
// reduce with exact arithmetic, and top-k re-runs the operator over the
// per-shard winners (in shard order) on the home machine. It returns the
// merged value, the merge step's own model calls, the per-shard counts
// and merged count for the cluster.shard_complete invariant.
func (e *Executor) mergeShards(ctx context.Context, n *core.Node, phys *ops.Physical, span *obs.Span,
	docIDs []int, shards [][]int, partials []values.Value, ran []bool, fb *ops.FaultBudget) (values.Value, []llm.Call, []int, int, error) {

	perShard := make([]int, len(shards))
	switch phys.Name {
	case "SemanticFilter":
		kept := make(map[int]bool)
		for s, v := range partials {
			if !ran[s] {
				continue
			}
			perShard[s] = len(v.DocIDs)
			for _, id := range v.DocIDs {
				kept[id] = true
			}
		}
		out := make([]int, 0, len(kept))
		for _, id := range docIDs {
			if kept[id] {
				out = append(out, id)
			}
		}
		return values.NewDocs(out), nil, perShard, len(out), nil

	case "SemanticCount", "SemanticSum":
		var total float64
		count := 0
		for s, v := range partials {
			if !ran[s] {
				continue
			}
			total += v.NumVal
			if phys.Name == "SemanticCount" {
				perShard[s] = int(v.NumVal)
			} else {
				perShard[s] = len(shards[s])
			}
		}
		if phys.Name == "SemanticCount" {
			count = int(total)
		} else {
			count = 0
			for s := range shards {
				count += perShard[s]
			}
		}
		return values.NewNum(total), nil, perShard, count, nil

	case "SemanticMax", "SemanticMin":
		first := true
		var best float64
		for s, v := range partials {
			if !ran[s] {
				continue
			}
			perShard[s] = len(shards[s])
			if first || (phys.Name == "SemanticMax" && v.NumVal > best) || (phys.Name == "SemanticMin" && v.NumVal < best) {
				best = v.NumVal
				first = false
			}
		}
		if first {
			return values.Value{}, nil, nil, 0, fmt.Errorf("exec: %s scatter produced no partials", phys.Name)
		}
		count := 0
		for s := range shards {
			count += perShard[s]
		}
		return values.NewNum(best), nil, perShard, count, nil

	case "SemanticTopK":
		var union []int
		for s, v := range partials {
			if !ran[s] {
				continue
			}
			perShard[s] = len(v.DocIDs)
			union = append(union, v.DocIDs...)
		}
		if len(union) == 0 {
			return values.Value{}, nil, nil, 0, fmt.Errorf("exec: top-k scatter produced no candidates")
		}
		env, rec := e.env(span, fb)
		v, err := phys.Run(ctx, env, n.Args, []values.Value{values.NewDocs(union)})
		if err != nil {
			return values.Value{}, nil, nil, 0, fmt.Errorf("exec: top-k combine: %w", err)
		}
		return v, rec.Calls(), perShard, len(v.DocIDs), nil
	}
	return values.Value{}, nil, nil, 0, fmt.Errorf("exec: %q has no scatter merge", phys.Name)
}
