package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"unify"
	"unify/internal/cache"
	"unify/internal/corpus"
	"unify/internal/llm"
	"unify/internal/obs"
	"unify/internal/server"
	"unify/internal/views"
)

// The traced run adds no instrumentation inside the program. It times
// calls into public functions from here: the set-up split, a timing
// wrapper around each simulated model client, the phase spans the
// program already attaches to every answer, and deltas of the program's
// own counters.

// timedClient wraps a model client and totals the wall time of the calls
// that reach it. The system's response cache sits above it, so it sees
// only paid (uncached) calls. Each call is charged to the query phase
// whose span rides on the call's context.
type timedClient struct {
	inner llm.Client

	mu     sync.Mutex
	calls  int
	busy   time.Duration
	inExec time.Duration
}

func (c *timedClient) Complete(ctx context.Context, prompt string) (llm.Response, error) {
	t0 := time.Now()
	resp, err := c.inner.Complete(ctx, prompt)
	d := time.Since(t0)
	exec := inExecute(obs.SpanFrom(ctx))
	c.mu.Lock()
	c.calls++
	c.busy += d
	if exec {
		c.inExec += d
	}
	c.mu.Unlock()
	return resp, err
}

func (c *timedClient) Profile() llm.Profile { return c.inner.Profile() }

// Unwrap lets llm.SimOf find the simulator underneath.
func (c *timedClient) Unwrap() llm.Client { return c.inner }

type clientSnap struct {
	calls        int
	busy, inExec time.Duration
}

func (c *timedClient) snap() clientSnap {
	c.mu.Lock()
	defer c.mu.Unlock()
	return clientSnap{c.calls, c.busy, c.inExec}
}

func (a clientSnap) sub(b clientSnap) clientSnap {
	return clientSnap{a.calls - b.calls, a.busy - b.busy, a.inExec - b.inExec}
}

func (a clientSnap) add(b clientSnap) clientSnap {
	return clientSnap{a.calls + b.calls, a.busy + b.busy, a.inExec + b.inExec}
}

// inExecute reports whether a span belongs to a query's execute phase:
// the executor runs model calls under the execute span or a plan-node
// span below it.
func inExecute(s *obs.Span) bool {
	return s != nil && (s.Name == "execute" || s.Kind == obs.KindNode)
}

// simSnap is a simulator's (calls, unique) count; unique calls missed
// its memo.
type simSnap struct{ calls, unique int }

func simStats(c llm.Client) simSnap {
	calls, unique := llm.SimOf(c).Stats()
	return simSnap{calls, unique}
}

// cacheLayers are the shared-cache layers reported per layer.
var cacheLayers = []string{"llm", "plan", "selectivity", "sce", "distance", "embed"}

// probe collects the traced run's per-layer figures.
type probe struct {
	train           bool // run System.TrainSCE during set-up
	opts            []unify.Option
	planner, worker *timedClient

	// set-up split
	generate, build, trainWall time.Duration
	trainCalls                 int

	// the attached system and its counters at attach
	sys    *unify.System
	slots  int
	cache0 map[string]cache.Stats
	views0 views.Stats
	scans0 int64
	w0, p0 clientSnap
	wsim0  simSnap

	// counter deltas over attached intervals
	w, p   clientSnap
	wsim   simSnap
	cacheD map[string]cache.Stats
	bytes  int64
	viewsD views.Stats
	scans  int64

	// per-query figures from the phase spans; mu guards them because
	// dashboard_http observes from every client
	mu                     sync.Mutex
	queries, nlQueries     int
	queryWall              time.Duration
	phaseWall              map[string]time.Duration
	phaseN                 map[string]int
	planCalls, estCalls    int
	slotBusy, slotCapacity time.Duration
	serverOverhead, qwait  time.Duration
	httpQueries            int
}

func newProbe(train bool, opts ...unify.Option) *probe {
	return &probe{
		train:     train,
		opts:      opts,
		cacheD:    map[string]cache.Stats{},
		phaseWall: map[string]time.Duration{},
		phaseN:    map[string]int{},
	}
}

// setUp builds the traced system in three timed steps: corpus
// generation, unify.New without SCE training, then System.TrainSCE
// (skipped unless p.train). The clients are the default-config
// simulators, each behind a timedClient.
func (p *probe) setUp(st *phaseStats) (*unify.System, error) {
	sim := llm.DefaultSimConfig()
	pc, wc := sim, sim
	pc.Profile = llm.PlannerProfile()
	wc.Profile = llm.WorkerProfile()
	p.planner = &timedClient{inner: llm.NewSim(pc)}
	p.worker = &timedClient{inner: llm.NewSim(wc)}

	t0 := time.Now()
	ds, err := corpus.GenerateN(dataset, baseDocs)
	if err != nil {
		return nil, err
	}
	p.generate = time.Since(t0)
	t1 := time.Now()
	sys, err := unify.New(append([]unify.Option{unify.WithCorpus(ds), unify.WithClients(p.planner, p.worker)}, p.opts...)...)
	if err != nil {
		return nil, err
	}
	p.build = time.Since(t1)
	if p.train {
		before := p.worker.snap()
		t2 := time.Now()
		if err := sys.TrainSCE(context.Background()); err != nil {
			return nil, err
		}
		p.trainWall = time.Since(t2)
		p.trainCalls = p.worker.snap().sub(before).calls
	}
	st.setups = append(st.setups, time.Since(t0).Seconds())
	return sys, nil
}

// attach starts counting the system's counters; detach folds the deltas
// since attach into the totals. Both are no-ops on a nil probe (the
// untraced run).
func (p *probe) attach(sys *unify.System) {
	if p == nil {
		return
	}
	p.sys = sys
	p.slots = sys.Config.Slots
	p.cache0 = sys.CacheStats()
	if sys.Views != nil {
		p.views0 = sys.Views.Stats()
	}
	p.scans0 = sys.Store.DistanceScans()
	p.w0, p.p0 = p.worker.snap(), p.planner.snap()
	p.wsim0 = simStats(p.worker)
}

func (p *probe) detach() {
	if p == nil || p.sys == nil {
		return
	}
	sys := p.sys
	for name, s := range sys.CacheStats() {
		b := p.cache0[name]
		d := p.cacheD[name]
		d.Hits += s.Hits - b.Hits
		d.Misses += s.Misses - b.Misses
		d.Evictions += s.Evictions - b.Evictions
		p.cacheD[name] = d
	}
	p.bytes = sys.Cache.Bytes()
	if sys.Views != nil {
		v := sys.Views.Stats()
		p.viewsD.Hits += v.Hits - p.views0.Hits
		p.viewsD.Misses += v.Misses - p.views0.Misses
		p.viewsD.Backfills += v.Backfills - p.views0.Backfills
		p.viewsD.Invalidated += v.Invalidated - p.views0.Invalidated
	}
	p.scans += sys.Store.DistanceScans() - p.scans0
	p.w = p.w.add(p.worker.snap().sub(p.w0))
	p.p = p.p.add(p.planner.snap().sub(p.p0))
	ws := simStats(p.worker)
	p.wsim.calls += ws.calls - p.wsim0.calls
	p.wsim.unique += ws.unique - p.wsim0.unique
	p.sys = nil
}

// observe folds one completed query's span tree and measured wall
// latency into the phase figures.
func (p *probe) observe(root *obs.SpanJSON, llmCalls int, lat time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.queries++
	p.queryWall += lat
	// Model calls are split by phase: the optimize and execute spans
	// carry their counts, and the planning phase made the rest.
	est, exe := 0, 0
	planning := false
	for _, c := range root.Children {
		calls, _ := strconv.Atoi(c.Attrs["llm_calls"])
		switch c.Name {
		case "planning":
			planning = true
		case "parse":
		case "optimize":
			est = calls
		case "execute":
			exe = calls
			busy, _ := time.ParseDuration(c.Attrs["slot_busy"])
			p.slotBusy += busy
			p.slotCapacity += secs(c.VTimeSecs) * time.Duration(p.slots)
		default:
			continue
		}
		p.phaseWall[c.Name] += time.Duration(c.WallMS * float64(time.Millisecond))
		p.phaseN[c.Name]++
	}
	p.estCalls += est
	if planning {
		p.nlQueries++
		p.planCalls += llmCalls - est - exe
	}
}

// observeAnswer folds an in-process answer.
func (p *probe) observeAnswer(ans *unify.Answer, lat time.Duration) {
	if p == nil {
		return
	}
	p.observe(ans.Trace.JSON(), ans.LLMCalls, lat)
}

// observeHTTP fetches a served query's span tree from the trace store
// (GET /v1/traces/{request_id}) and folds it, with the serving-layer
// overhead: client wall minus the query span's wall.
func (p *probe) observeHTTP(client *http.Client, url string, resp *server.QueryResponse, lat time.Duration) error {
	r, err := client.Get(url + "/v1/traces/" + resp.RequestID)
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return fmt.Errorf("trace %s: status %d", resp.RequestID, r.StatusCode)
	}
	var td server.TraceDetail
	if err := json.NewDecoder(r.Body).Decode(&td); err != nil {
		return fmt.Errorf("trace %s: %w", resp.RequestID, err)
	}
	p.observe(td.Root, td.LLMCalls, lat)
	p.mu.Lock()
	p.httpQueries++
	p.serverOverhead += lat - time.Duration(td.Root.WallMS*float64(time.Millisecond))
	p.qwait += secs(resp.QueueWaitSecs)
	p.mu.Unlock()
	return nil
}

// per divides, returning 0 for an empty denominator (an idle layer).
func per(x float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return x / float64(n)
}

func frac(x, total time.Duration) float64 {
	if total <= 0 {
		return 0
	}
	return float64(x) / float64(total)
}

func msPer(d time.Duration, n int) float64 { return per(ms(d), n) }

// result turns the traced phase into the per-layer metrics. st is the
// untraced phase of the same run (for the tracing overhead); the traced
// phase must reproduce its answers and virtual times exactly.
func (p *probe) result(st, tst *phaseStats) *result {
	m := newMetrics()
	q := p.queries
	m.set("corpus.generate_s", p.generate.Seconds(), "s")
	m.set("docstore.build_s", p.build.Seconds(), "s")
	m.set("sce.train_s", p.trainWall.Seconds(), "s")
	m.set("sce.train_model_calls", float64(p.trainCalls), "calls")
	m.set("docstore.add_ms_per_doc", per(sum(tst.addMS), len(tst.addMS)*addPerRound), "ms")
	m.set("docstore.update_ms_per_doc", per(sum(tst.updateMS), len(tst.updateMS)*updatesPerRound), "ms")
	m.set("ingest_add_p50_ms", medianOr0(tst.addMS), "ms")
	m.set("ingest_update_p50_ms", medianOr0(tst.updateMS), "ms")
	m.set("docstore.distance_scans", per(float64(p.scans), q), "scans/query")
	m.set("core.planning_ms", msPer(p.phaseWall["planning"], p.phaseN["planning"]), "ms/query")
	m.set("core.planner_calls_per_query", per(float64(p.planCalls), p.nlQueries), "calls/query")
	m.set("usql.parse_ms", msPer(p.phaseWall["parse"], p.phaseN["parse"]), "ms/query")
	m.set("optimizer.optimize_ms", msPer(p.phaseWall["optimize"], p.phaseN["optimize"]), "ms/query")
	m.set("optimizer.estimation_calls_per_query", per(float64(p.estCalls), q), "calls/query")
	m.set("exec.execute_ms", msPer(p.phaseWall["execute"], p.phaseN["execute"]), "ms/query")
	m.set("exec.self_ms", msPer(p.phaseWall["execute"]-p.w.inExec, p.phaseN["execute"]), "ms/query")
	m.set("llm.worker_calls", per(float64(p.w.calls), q), "calls/query")
	m.set("llm.worker_busy_s", p.w.busy.Seconds(), "s")
	m.set("llm.worker_busy_share", frac(p.w.inExec, p.phaseWall["execute"]), "fraction")
	m.set("llm.worker_ms_per_call", msPer(p.w.busy, p.w.calls), "ms")
	m.set("llm.sim_memo_hit_rate", per(float64(p.wsim.calls-p.wsim.unique), p.wsim.calls), "fraction")
	m.set("llm.planner_calls", per(float64(p.p.calls), q), "calls/query")
	m.set("llm.planner_busy_s", p.p.busy.Seconds(), "s")
	var evictions uint64
	for _, name := range cacheLayers {
		s := p.cacheD[name]
		m.set("cache."+name+".hit_rate", s.HitRate(), "fraction")
	}
	for _, s := range p.cacheD {
		evictions += s.Evictions
	}
	m.set("cache.evictions", float64(evictions), "count")
	m.set("cache.bytes", float64(p.bytes), "bytes")
	m.set("sched.utilization", frac(p.slotBusy, p.slotCapacity), "fraction")
	m.set("views.hit_rate", p.viewsD.HitRate(), "fraction")
	rounds := len(tst.addMS)
	m.set("views.backfills", per(float64(p.viewsD.Backfills), rounds), "rows/round")
	m.set("views.invalidated", per(float64(p.viewsD.Invalidated), rounds), "rows/round")
	m.set("server.overhead_ms", msPer(p.serverOverhead, p.httpQueries), "ms/query")
	m.set("server.queue_wait_ms", msPer(p.qwait, p.httpQueries), "ms/query")
	var phases time.Duration
	for _, d := range p.phaseWall {
		phases += d
	}
	m.set("trace.phase_coverage", frac(phases, p.queryWall), "fraction")
	m.set("trace_overhead_frac", st.qps()/tst.qps()-1, "fraction")

	res := &result{
		attempted: st.attempted + tst.attempted,
		failed:    st.failed + tst.failed,
		checks:    append(append([]string(nil), st.checks...), tst.checks...),
		m:         m,
		digest:    st.digest.String(),
		samples:   st.samples(),
	}
	if got, want := tst.digest.String(), st.digest.String(); got != want {
		res.checks = append(res.checks, fmt.Sprintf("traced run digest %s differs from untraced %s", got, want))
	}
	return res
}

func sum(s []float64) float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func medianOr0(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return median(s)
}
