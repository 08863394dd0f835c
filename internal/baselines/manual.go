package baselines

import (
	"context"
	"fmt"
	"time"

	"unify/internal/core"
	"unify/internal/cost"
	"unify/internal/docstore"
	"unify/internal/exec"
	"unify/internal/llm"
	"unify/internal/nlq"
	"unify/internal/optimizer"
	"unify/internal/sce"
)

// Manual is baseline (6): a human expert designs and debugs the physical
// plan by hand, then executes it. The expert is emulated by an oracle
// decomposition (perfect operator choice and wiring, no model calls), and
// the human design-and-debug effort is charged as a constant planning
// cost, matching the paper's methodology ("the planning time cost for
// this method is calculated based on the time spent designing the plan
// and debugging for execution").
type Manual struct {
	Store  *docstore.Store
	Worker llm.Client
	Slots  int
	Batch  int
	// DesignTime is the charged human planning effort (paper: tens of
	// minutes per query).
	DesignTime time.Duration
}

// NewManual returns the baseline with a 20-minute design charge.
func NewManual(store *docstore.Store, worker llm.Client) *Manual {
	return &Manual{Store: store, Worker: worker, Slots: 4, Batch: 16, DesignTime: 20 * time.Minute}
}

// Name implements Baseline.
func (b *Manual) Name() string { return "Manual" }

// Run implements Baseline.
func (b *Manual) Run(ctx context.Context, query string) (Result, error) {
	plan, err := OraclePlan(query)
	if err != nil {
		// Even experts cannot plan an ungroundable query; they answer
		// from reading a retrieved sample.
		docs := contextDocsForSentences(b.Store, b.Store.SearchSentences(query, 100), 30)
		text, calls, gerr := generate(ctx, b.Worker, query, docs)
		if gerr != nil {
			return Result{}, gerr
		}
		return Result{Text: text, Latency: b.DesignTime + llm.Fold(calls).Dur, LLMCalls: len(calls)}, nil
	}
	calib := cost.NewCalibrator(b.Batch)
	est := sce.NewEstimator(b.Store, b.Worker, 8)
	opt := optimizer.New(b.Store, est, calib, b.Slots)
	opt.Mode = optimizer.GroundTruth // the expert knows the data
	phys, _, err := opt.Optimize(ctx, []*core.Plan{plan})
	if err != nil {
		return Result{}, err
	}
	executor := exec.New(b.Store, b.Worker, calib)
	executor.Slots = b.Slots
	executor.BatchSize = b.Batch
	res, err := executor.Run(ctx, phys)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Text:     formatValue(b.Store, res.Answer),
		Latency:  b.DesignTime + res.Makespan,
		LLMCalls: len(res.Calls),
	}, nil
}

// OraclePlan decomposes a query with perfect operator selection and exact
// dependency wiring — the plan a careful expert would write. It is also
// used by tests as the reference decomposition.
func OraclePlan(query string) (*core.Plan, error) {
	q, err := nlq.Parse(query)
	if err != nil {
		return nil, err
	}
	plan := &core.Plan{Query: query}
	producers := map[string]int{} // var token -> node id
	next := 1
	for steps := 0; !q.Solved(); steps++ {
		if steps > 30 {
			return nil, fmt.Errorf("baselines: oracle reduction did not converge for %q", query)
		}
		apps := nlq.Applicable(q, next)
		var chosen string
		for _, op := range nlq.OperatorNames {
			if _, ok := apps[op]; ok {
				chosen = op
				break
			}
		}
		if chosen == "" {
			return nil, fmt.Errorf("baselines: oracle stuck at %q", q.Render())
		}
		red, ok := nlq.Reduce(q, chosen, next)
		if !ok {
			return nil, fmt.Errorf("baselines: oracle reduce failed at %q", q.Render())
		}
		node := &core.Node{
			ID:     len(plan.Nodes),
			Op:     red.Op,
			Args:   red.Args,
			Inputs: red.Inputs,
			OutVar: red.VarName,
			Desc:   red.VarDesc,
		}
		for _, in := range red.Inputs {
			if id, ok := producers[in]; ok {
				node.Deps = append(node.Deps, id)
			}
		}
		plan.Nodes = append(plan.Nodes, node)
		producers["{"+red.VarName+"}"] = node.ID
		q = red.Query
		next++
	}
	return plan, nil
}
