package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"unify"
	"unify/internal/corpus"
	"unify/internal/docstore"
	"unify/internal/server"
	"unify/internal/workload"
)

const (
	dataset     = "sports"
	baseDocs    = 1000
	perTemplate = 5 // workload.Generate: 5 instances of each of 20 templates
	setupRuns   = 3 // set-ups per run; setup_s is their median
	httpClients = 2 // closed-loop clients of dashboard_http

	// dashboard_http: each client makes passesPer10s whole passes over
	// the query set per 10 s of --seconds (24 at --seconds 20, about 20 s
	// on a 2-vCPU Xeon). A fixed amount of work, because the server's
	// live heap after the phase depends on exactly how many queries it
	// has answered (84 to 104 MB over 4,400 to 5,600 queries, the same
	// figure whenever the count repeats): a time-bounded loop would make
	// heap_mb depend on speed.
	passesPer10s = 12

	// ingest_usql round shape: one Ingest call adding addPerRound new
	// documents, one rewriting updatesPerRound existing ids in place. A
	// run makes one round per secondsPerRound of --seconds, a fixed amount
	// of work, because each round grows the corpus and so costs more than
	// the last: a time-bounded loop would make every figure depend on how
	// many rounds fit.
	addPerRound     = 20
	updatesPerRound = 2
	secondsPerRound = 2
)

// phaseStats accumulates one timed phase.
type phaseStats struct {
	latMS    []float64 // wall latency of each completed query
	vtimeS   []float64 // its virtual latency
	paid     int       // uncached model calls
	paidOver int       // queries paid calls are averaged over
	scored   int
	correct  int
	wall     time.Duration // the phase's measured wall time
	heapMB   float64
	setups   []float64 // set-up wall times in seconds

	addMS, updateMS []float64 // ingest_usql: wall per Ingest call

	attempted, failed int
	checks            []string
	digest            digest
}

func (p *phaseStats) fail(format string, args ...any) {
	p.checks = append(p.checks, fmt.Sprintf(format, args...))
}

func (p *phaseStats) qps() float64 { return float64(len(p.latMS)) / p.wall.Seconds() }

// score checks one answer against the query's ground truth.
func (p *phaseStats) score(q workload.Query, answer string) {
	p.scored++
	if workload.Score(q, answer) {
		p.correct++
	}
}

// endToEnd turns a phase into the end-to-end metrics.
func (p *phaseStats) endToEnd() (*metrics, error) {
	if len(p.latMS) == 0 || p.paidOver == 0 || p.scored == 0 {
		return nil, errors.New("no query completed")
	}
	m := newMetrics()
	m.set("setup_s", median(p.setups), "s")
	m.set("queries_per_s", p.qps(), "1/s")
	p50, _ := percentile(p.latMS, 50)
	p90, beyond := percentile(p.latMS, 90)
	if beyond < 10 {
		return nil, fmt.Errorf("only %d of %d latency samples beyond p90; need 10", beyond, len(p.latMS))
	}
	m.set("query_p50_ms", p50, "ms")
	m.set("query_p90_ms", p90, "ms")
	v50, _ := percentile(p.vtimeS, 50)
	v90, _ := percentile(p.vtimeS, 90)
	m.set("vtime_p50_s", v50, "virtual_s")
	m.set("vtime_p90_s", v90, "virtual_s")
	m.set("accuracy", float64(p.correct)/float64(p.scored), "fraction")
	m.set("model_calls_per_query", float64(p.paid)/float64(p.paidOver), "calls/query")
	m.set("heap_mb", p.heapMB, "MB")
	return m, nil
}

func (p *phaseStats) result(m *metrics) *result {
	return &result{attempted: p.attempted, failed: p.failed, checks: p.checks, m: m, digest: p.digest.String(), samples: p.samples()}
}

// samples states how many latency samples the percentiles rest on.
func (p *phaseStats) samples() string {
	_, beyond := percentile(p.latMS, 90)
	return fmt.Sprintf("%d query latencies, %d beyond p90", len(p.latMS), beyond)
}

// buildFunc makes a fresh system over the base corpus and reports its
// set-up wall time: corpus generation plus unify.New.
type buildFunc func() (*unify.System, time.Duration, error)

// buildWith builds with the given options; WithCorpus is implied.
func buildWith(opts ...unify.Option) buildFunc {
	return func() (*unify.System, time.Duration, error) {
		start := time.Now()
		ds, err := corpus.GenerateN(dataset, baseDocs)
		if err != nil {
			return nil, 0, err
		}
		sys, err := unify.New(append([]unify.Option{unify.WithCorpus(ds)}, opts...)...)
		if err != nil {
			return nil, 0, err
		}
		return sys, time.Since(start), nil
	}
}

// setUp builds setupRuns systems in turn, recording each set-up time, and
// returns the last one.
func setUp(build buildFunc, st *phaseStats) (*unify.System, error) {
	var sys *unify.System
	for i := 0; i < setupRuns; i++ {
		sys = nil // let the previous system be collected
		var (
			d   time.Duration
			err error
		)
		if sys, d, err = build(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		st.setups = append(st.setups, d.Seconds())
	}
	return sys, nil
}

// phaseFunc runs a workload's measured phase on sys. tp is nil in the
// untraced run.
type phaseFunc func(sys *unify.System, st *phaseStats, tp *probe) error

// measure runs a workload: setupRuns set-ups with build, then the phase
// on the last system, untraced. In trace mode it then builds a system
// through the probe and runs the phase again, traced.
func measure(traced bool, build buildFunc, tp *probe, phase phaseFunc) (*result, error) {
	st := &phaseStats{}
	sys, err := setUp(build, st)
	if err != nil {
		return nil, err
	}
	if err := phase(sys, st, nil); err != nil {
		return nil, err
	}
	if !traced {
		m, err := st.endToEnd()
		if err != nil {
			return nil, err
		}
		return st.result(m), nil
	}
	tst := &phaseStats{}
	tsys, err := tp.setUp(tst)
	if err != nil {
		return nil, err
	}
	if err := phase(tsys, tst, tp); err != nil {
		return nil, err
	}
	return tp.result(st, tst), nil
}

// paidCalls is the number of model calls an answer paid for.
func paidCalls(ans *unify.Answer) int { return ans.LLMCalls - ans.CachedLLMCalls }

// inputs generates the benchmark's inputs from the seed: the base corpus
// and the 100 queries of workload.Generate over it, in its order.
func inputs(seed int64) (*corpus.Dataset, []workload.Query, error) {
	base, err := corpus.GenerateN(dataset, baseDocs)
	if err != nil {
		return nil, nil, err
	}
	return base, workload.Generate(base, perTemplate, seed), nil
}

// ---- adhoc_nl -------------------------------------------------------------

func runAdhoc(seed int64, seconds time.Duration, traced bool) (*result, error) {
	_, queries, err := inputs(seed)
	if err != nil {
		return nil, err
	}
	build := buildWith(unify.WithTrainSCE())
	return measure(traced, build, newProbe(true), func(sys *unify.System, st *phaseStats, tp *probe) error {
		rebuild := build
		if tp != nil {
			rebuild = nil
		}
		return adhocPhase(queries, seconds, sys, rebuild, st, tp)
	})
}

// adhocPhase sends every query once, in order, from one client, and
// repeats the whole pass on a freshly built system until the phase has
// run for at least seconds. Only query time counts toward the phase;
// rebuilding between passes is recorded as set-up. A nil rebuild (the
// traced run) stops after one pass.
func adhocPhase(queries []workload.Query, seconds time.Duration, sys *unify.System, rebuild buildFunc, st *phaseStats, tp *probe) error {
	ctx := context.Background()
	for pass := 0; ; pass++ {
		if pass > 0 {
			if rebuild == nil || st.wall >= seconds {
				break
			}
			sys = nil
			s, d, err := rebuild()
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			sys = s
			st.setups = append(st.setups, d.Seconds())
		}
		tp.attach(sys)
		start := time.Now()
		for _, q := range queries {
			st.attempted++
			t0 := time.Now()
			ans, err := sys.Query(ctx, q.Text)
			lat := time.Since(t0)
			if err != nil {
				st.failed++
				st.fail("query %s: %v", q.ID, err)
				continue
			}
			st.latMS = append(st.latMS, ms(lat))
			st.vtimeS = append(st.vtimeS, ans.TotalDur.Seconds())
			st.paid += paidCalls(ans)
			st.paidOver++
			st.score(q, ans.Text)
			if pass == 0 {
				st.digest.add(ans.Text, ans.TotalDur)
			}
			tp.observeAnswer(ans, lat)
		}
		st.wall += time.Since(start)
		tp.detach()
	}
	heap, err := liveHeapMB()
	if err != nil {
		return err
	}
	st.heapMB = heap
	runtime.KeepAlive(sys)
	return nil
}

// ---- dashboard_http -------------------------------------------------------

func runDashboard(seed int64, seconds time.Duration, traced bool) (*result, error) {
	_, queries, err := inputs(seed)
	if err != nil {
		return nil, err
	}
	return measure(traced, buildWith(unify.WithTrainSCE()), newProbe(true), func(sys *unify.System, st *phaseStats, tp *probe) error {
		return dashboardPhase(queries, seconds, sys, st, tp)
	})
}

// httpQuery POSTs one query and decodes the response. A non-2xx status
// is an error.
func httpQuery(client *http.Client, url, q string) (*server.QueryResponse, error) {
	body, err := json.Marshal(server.QueryRequest{Query: q})
	if err != nil {
		return nil, err
	}
	resp, err := client.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, raw)
	}
	var out server.QueryResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// dashboardPhase serves the system on a loopback listener, warms it with
// one untimed pass, then has httpClients closed-loop clients POST the
// query set over and over for the phase. Every timed answer must equal
// the warm pass's (cold) answer to the same query.
func dashboardPhase(queries []workload.Query, seconds time.Duration, sys *unify.System, st *phaseStats, tp *probe) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: server.New(sys)}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		_ = hs.Shutdown(context.Background()) // no request is in flight by now
		<-served
	}()
	url := "http://" + ln.Addr().String()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: httpClients}}
	defer client.CloseIdleConnections()

	// Warm pass: one client, each query once; its answers are the cold
	// reference and its paid calls are the query set's model cost.
	cold := make([]string, len(queries))
	for i, q := range queries {
		st.attempted++
		resp, err := httpQuery(client, url, q.Text)
		if err != nil {
			st.failed++
			st.fail("warm query %s: %v", q.ID, err)
			continue
		}
		cold[i] = resp.Answer
		st.paid += resp.LLMCalls - resp.CachedCalls
		st.paidOver++
		st.digest.add(resp.Answer, secs(resp.TotalSecs))
	}

	// Timed phase: closed loop, client c starts at offset c/httpClients
	// of the query list and makes a fixed number of whole passes, so
	// every query weighs the same in the percentiles. Each sample keeps
	// only what the metrics and checks need, so the benchmark's own
	// memory does not grow with throughput and show up in heap_mb.
	type sample struct {
		idx     int
		lat     time.Duration
		vtime   float64
		correct bool
		differs bool   // the answer is not the cold answer
		answer  string // kept only when it differs
		err     error
	}
	var (
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
	)
	passes := max(1, int(seconds.Seconds()*passesPer10s/10))
	tp.attach(sys)
	start := time.Now()
	for c := 0; c < httpClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var local []sample
			first := c * len(queries) / httpClients
			for k := 0; k < passes*len(queries); k++ {
				i := (first + k) % len(queries)
				t0 := time.Now()
				resp, err := httpQuery(client, url, queries[i].Text)
				s := sample{idx: i, lat: time.Since(t0), err: err}
				if err == nil {
					s.vtime = resp.TotalSecs
					s.correct = workload.Score(queries[i], resp.Answer)
					if resp.Answer != cold[i] {
						s.differs, s.answer = true, resp.Answer
					}
					if tp != nil {
						s.err = tp.observeHTTP(client, url, resp, s.lat)
					}
				}
				local = append(local, s)
			}
			mu.Lock()
			samples = append(samples, local...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	st.wall = time.Since(start)
	tp.detach()

	for _, s := range samples {
		q := queries[s.idx]
		st.attempted++
		if s.err != nil {
			st.failed++
			st.fail("query %s: %v", q.ID, s.err)
			continue
		}
		st.latMS = append(st.latMS, ms(s.lat))
		st.vtimeS = append(st.vtimeS, s.vtime)
		st.scored++
		if s.correct {
			st.correct++
		}
		if s.differs {
			st.fail("query %s: answer %q differs from cold answer %q", q.ID, s.answer, cold[s.idx])
		}
	}
	samples = nil

	heap, err := liveHeapMB()
	if err != nil {
		return err
	}
	st.heapMB = heap
	runtime.KeepAlive(sys)
	return nil
}

// ---- ingest_usql ----------------------------------------------------------

// ingestInputs are the documents ingest_usql writes: a pool continuing
// corpus.GenerateN past the base, split into documents to add (in order)
// and replacement contents for updates.
type ingestInputs struct {
	adds    []corpus.Doc
	rewrite []corpus.Doc
	rng     *rand.Rand
}

func newIngestInputs(seed int64, rounds int) (*ingestInputs, error) {
	nAdd := rounds * addPerRound
	full, err := corpus.GenerateN(dataset, baseDocs+nAdd+rounds*updatesPerRound)
	if err != nil {
		return nil, err
	}
	return &ingestInputs{
		adds:    full.Docs[baseDocs : baseDocs+nAdd],
		rewrite: full.Docs[baseDocs+nAdd:],
		rng:     rand.New(rand.NewSource(seed)),
	}, nil
}

// round returns round r's added documents and in-place rewrites: the
// rewrites give updatesPerRound distinct base ids, drawn from the seed,
// the contents of fresh pool documents.
func (in *ingestInputs) round(r int) (add, update []corpus.Doc) {
	add = in.adds[r*addPerRound : (r+1)*addPerRound]
	ids := in.rng.Perm(baseDocs)[:updatesPerRound]
	for i, id := range ids {
		d := in.rewrite[r*updatesPerRound+i]
		d.ID = id
		update = append(update, d)
	}
	return add, update
}

func docs(ds []corpus.Doc) []docstore.Document {
	out := make([]docstore.Document, len(ds))
	for i, d := range ds {
		out[i] = docstore.Document{ID: d.ID, Title: d.Title, Text: d.Text}
	}
	return out
}

func runIngest(seed int64, seconds time.Duration, traced bool) (*result, error) {
	base, queries, err := inputs(seed)
	if err != nil {
		return nil, err
	}
	var twins []workload.Query
	for _, q := range queries {
		if q.USQL != "" {
			twins = append(twins, q)
		}
	}
	return measure(traced, buildWith(unify.WithViews()), newProbe(false, unify.WithViews()), func(sys *unify.System, st *phaseStats, tp *probe) error {
		final, err := ingestPhase(base, twins, seed, seconds, sys, st, tp)
		if err != nil || tp != nil {
			return err
		}
		return checkIngestReference(final, twins, st)
	})
}

// ingestFinal is the corpus and answers after ingest_usql's last round.
type ingestFinal struct {
	corpus  *corpus.Dataset
	answers []string
}

// ingestPhase runs the USQL twins once untimed to populate the views
// (these answers are scored against ground truth), then makes one round
// of {add Ingest, update Ingest, USQL pass} per secondsPerRound of
// seconds. Ingest and query time both count toward the phase.
func ingestPhase(base *corpus.Dataset, twins []workload.Query, seed int64, seconds time.Duration, sys *unify.System, st *phaseStats, tp *probe) (*ingestFinal, error) {
	ctx := context.Background()
	rounds := int(seconds / (secondsPerRound * time.Second))
	if rounds < 1 {
		rounds = 1
	}
	in, err := newIngestInputs(seed, rounds)
	if err != nil {
		return nil, err
	}
	// Freeze the cost model before the first query, so that plan choice
	// does not drift with execution history and the reference systems
	// opened after the last round plan like this one.
	sys.Calib.Freeze()
	live := append([]corpus.Doc(nil), base.Docs...)

	answers := make([]string, len(twins))
	vtimes := make([]time.Duration, len(twins))
	pass := func(populate bool) {
		for i, q := range twins {
			st.attempted++
			t0 := time.Now()
			ans, err := sys.Query(ctx, q.USQL)
			lat := time.Since(t0)
			if err != nil {
				st.failed++
				st.fail("query %s: %v", q.ID, err)
				answers[i], vtimes[i] = "", 0
				continue
			}
			answers[i], vtimes[i] = ans.Text, ans.TotalDur
			if populate {
				st.score(q, ans.Text)
				st.digest.add(ans.Text, ans.TotalDur)
				continue
			}
			st.latMS = append(st.latMS, ms(lat))
			st.vtimeS = append(st.vtimeS, ans.TotalDur.Seconds())
			st.paid += paidCalls(ans)
			st.paidOver++
			tp.observeAnswer(ans, lat)
		}
	}
	pass(true)

	tp.attach(sys)
	start := time.Now()
	for r := 0; r < rounds; r++ {
		add, update := in.round(r)
		for _, call := range []struct {
			add, update []corpus.Doc
			lat         *[]float64
		}{{add, nil, &st.addMS}, {nil, update, &st.updateMS}} {
			st.attempted++
			t0 := time.Now()
			_, err := sys.Ingest(docs(call.add), docs(call.update))
			lat := time.Since(t0)
			if err != nil {
				st.failed++
				st.fail("round %d ingest: %v", r, err)
				continue
			}
			*call.lat = append(*call.lat, ms(lat))
		}
		live = append(live, add...)
		for _, d := range update {
			live[d.ID] = d
		}
		pass(false)
		if r == 0 {
			for i := range twins {
				st.digest.add(answers[i], vtimes[i])
			}
		}
	}
	st.wall = time.Since(start)
	tp.detach()
	heap, err := liveHeapMB()
	if err != nil {
		return nil, err
	}
	st.heapMB = heap
	runtime.KeepAlive(sys)

	final := *base
	final.Docs = live
	return &ingestFinal{corpus: &final, answers: answers}, nil
}

// checkIngestReference requires the last round's answers to be
// byte-identical to those of a fresh views-on system opened over the
// final corpus, once one pass of the twins has filled its views: an
// incrementally maintained system must answer like one built over the
// final corpus. It also counts the answers a fresh views-off system gives
// differently, without failing on them: a filter that views fully cover
// is planned as an exact SemanticFilter, where a cold system may pick an
// approximate IndexFilter and so count a few documents differently. Both
// run after the timed phase.
func checkIngestReference(final *ingestFinal, twins []workload.Query, st *phaseStats) error {
	open := func(opts ...unify.Option) (*unify.System, error) {
		ref, err := unify.New(append([]unify.Option{unify.WithCorpus(final.corpus)}, opts...)...)
		if err != nil {
			return nil, fmt.Errorf("reference system: %w", err)
		}
		ref.Calib.Freeze()
		return ref, nil
	}
	run := func(ref *unify.System) []string {
		answers := make([]string, len(twins))
		for i, q := range twins {
			ans, err := ref.Query(context.Background(), q.USQL)
			if err != nil {
				st.fail("reference query %s: %v", q.ID, err)
				continue
			}
			answers[i] = ans.Text
		}
		return answers
	}
	off, err := open()
	if err != nil {
		return err
	}
	viewsOff := run(off)
	on, err := open(unify.WithViews())
	if err != nil {
		return err
	}
	run(on) // fills the views
	viewsOn := run(on)
	differ := 0
	for i, q := range twins {
		if viewsOn[i] != final.answers[i] {
			st.fail("query %s: answer after ingest %q differs from fresh views-on system %q", q.ID, final.answers[i], viewsOn[i])
		}
		if viewsOff[i] != final.answers[i] {
			differ++
		}
	}
	fmt.Printf("reference: %d of %d answers after ingest differ from a fresh views-off system (plan choice, not checked)\n", differ, len(twins))
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
