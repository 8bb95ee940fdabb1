// Command perfbench is the repository's end-to-end benchmark. It starts
// the serve daemon in-process on a loopback listener, over a resolve pool
// of fixed width 2 with zero-valued session options, and drives one
// workload over real HTTP: every request is JSON-encoded, sent over a
// socket, decoded and admitted by the daemon, routed to a shard, solved
// or answered from cache, and encoded back. Every answer is checked
// against the universe's declarations by the benchmark's own code.
//
//	go run . --workload reuse --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of one untraced run;
// with --trace 1 it makes an untraced and a traced run and reports the
// per-layer metrics of the traced one plus the tracing overhead. The last
// line of standard output is a JSON object with the keys correct,
// attempted, failed and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
	"github.com/paper-repo-growth/go-arxiv/resolve"
	"github.com/paper-repo-growth/go-arxiv/serve"
)

// Configuration guards. The pool width is fixed (the default follows
// GOMAXPROCS), the session options are zero-valued (so a change of the
// session defaults is measured here unchanged), and the daemon's
// in-flight bound matches the pool width on every machine.
const (
	poolWidth = 2

	// An untraced run sets up setupsBefore times before the timed phase
	// (serving from the last) and setupsAfter times after it; setup_s is
	// the median of all of them, taken at two moments of the run so that
	// a passing slow spell of the machine moves it less.
	setupsBefore = 6
	setupsAfter  = 5
	// countedOps is the stream prefix whose solver effort is totalled: on
	// a one-client workload the same seed gives the same totals.
	countedOps = 1000
	// resampleN answers of the counted prefix are re-solved on a fresh
	// one-shot session after the run.
	resampleN = 8
)

// workload is one traffic mix.
type workload struct {
	name    string
	clients int
	// probeApplies is the number of applies run after the timed phase of
	// a workload without applies of its own, so that apply_p50_ms is
	// measured on every workload: about half a second of them on hit, and
	// 1.6 s on reuse, whose applies each scan answer caches full of
	// minimal-change entries.
	probeApplies int
	gen          func(e *env, client int) generator
}

var workloads = []*workload{
	{name: "hit", clients: 2, probeApplies: 1000, gen: func(e *env, c int) generator {
		rng := streamRand(e.seed, streamOps+c)
		return &hitGen{shapes: &deck{rng: rng, n: len(e.shapes)}, hot: e.shapes}
	}},
	{name: "reuse", clients: 1, probeApplies: 200, gen: func(e *env, c int) generator {
		rng := streamRand(e.seed, streamOps+c)
		return &reuseGen{rng: rng, shapes: &deck{rng: rng, n: len(e.shapes)}, hot: e.shapes, base: e.base, seen: map[uint64]bool{}}
	}},
	{name: "churn", clients: 1, gen: func(e *env, c int) generator {
		rng := streamRand(e.seed, streamOps+c)
		return &churnGen{shapes: &deck{rng: rng, n: len(e.shapes)}, pkgs: &deck{rng: rng, n: densePkgs}, hot: e.shapes}
	}},
}

func main() {
	name := flag.String("workload", "", "workload: hit, reuse or churn")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	flag.Parse()
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	fmt.Printf("machine: nproc=%d gomaxprocs=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	fmt.Printf("config: workload=%s seed=%d seconds=%g clients=%d universe=dense %dx%d deps=%d universe_seed=%d shapes=%d backend=pool width=%d session_options=zero portfolio=off\n",
		w.name, *seed, *seconds, w.clients, densePkgs, denseVersions, denseDeps, universeSeed, numShapes, poolWidth)
	dur := time.Duration(*seconds * float64(time.Second))
	res, err := run(w, *seed, dur, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run makes the runs one invocation asks for and assembles its result.
func run(w *workload, seed int64, dur time.Duration, traced bool) (*result, error) {
	if !traced {
		p, err := runPass(w, seed, dur, 0, false, setupsBefore, setupsAfter)
		if err != nil {
			return nil, err
		}
		p.print("")
		return &result{Correct: p.log.failed == 0, Attempted: p.log.attempted, Failed: p.log.failed, Metrics: p.endToEnd()}, nil
	}
	base, err := runPass(w, seed, dur, 0, false, 1, 0)
	if err != nil {
		return nil, err
	}
	base.print("untraced ")
	tp, err := runPass(w, seed, dur, 0, true, 1, 0)
	if err != nil {
		return nil, err
	}
	tp.print("traced ")
	m := tp.perLayer()
	m["trace.overhead_p50_ms"] = metric{ms(tp.resolveP50) - ms(base.resolveP50), "ms"}
	m["trace.overhead_rps_ratio"] = metric{1 - tp.rps/base.rps, "ratio"}
	return &result{
		Correct:   base.log.failed == 0 && tp.log.failed == 0,
		Attempted: base.log.attempted + tp.log.attempted,
		Failed:    base.log.failed + tp.log.failed,
		Metrics:   m,
	}, nil
}

// env is one set-up daemon with the benchmark's replica of its universe.
type env struct {
	seed    int64
	shapes  [][]string
	base    []map[string]string // set-up answer picks, per shape
	replica *repo.Universe
	deltas  []*versionAdd // applied so far, in order

	pool   *resolve.PoolResolver
	srv    *serve.Server
	ts     *httptest.Server
	tr     *http.Transport
	client *http.Client
	rec    *recorder // nil when untraced
	opID   atomic.Int64
	// wanted marks the positions of client 0's timed stream whose answers
	// are kept for the re-solve.
	wanted     map[int]bool
	phaseStart time.Time
}

// setUp builds the daemon and answers the hot set. It returns the time
// the daemon's side took: universe generation, backend construction,
// listener start and the warm-up answers.
func setUp(seed int64, traced bool, log *clientLog) (*env, time.Duration, error) {
	e := &env{seed: seed, shapes: hotSet(), replica: newUniverse()}
	start := time.Now()
	e.pool = resolve.NewPoolResolver(newUniverse(), poolWidth, resolve.SessionOptions{})
	var backend serve.Backend = e.pool
	if traced {
		e.rec = &recorder{}
		backend = tracedPool{e.pool, e.rec}
	}
	e.srv = serve.New(backend, serve.Options{MaxInflight: poolWidth})
	var h http.Handler = e.srv
	if traced {
		h = withOpID(h)
	}
	e.ts = httptest.NewServer(h)
	e.tr = &http.Transport{MaxIdleConnsPerHost: 4}
	e.client = &http.Client{Transport: e.tr, Timeout: time.Minute}
	answers := make([]serve.ResolveResponse, len(e.shapes))
	for i, roots := range e.shapes {
		status, _, err := e.post("/v1/resolve", serve.ResolveRequest{Roots: roots}, 0, &answers[i])
		if err != nil {
			e.close()
			return nil, 0, fmt.Errorf("set-up resolve %v: status %d: %v", roots, status, err)
		}
	}
	took := time.Since(start)
	for i, roots := range e.shapes {
		log.attempted++
		log.status[http.StatusOK]++
		if err := e.check(roots, answers[i]); err != nil {
			log.fail(0, fmt.Sprintf("set-up resolve %v", roots), http.StatusOK, err)
		}
		e.base = append(e.base, answers[i].Picks)
	}
	return e, took, nil
}

func (e *env) close() {
	e.tr.CloseIdleConnections()
	e.ts.Close()
}

// post sends one JSON request and decodes a 200 answer into out. The
// latency runs from send to the full body read.
func (e *env) post(path string, body any, id int64, out any) (int, time.Duration, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, 0, err
	}
	req, err := http.NewRequest(http.MethodPost, e.ts.URL+path, bytes.NewReader(b))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if e.rec != nil {
		req.Header.Set(opHeader, strconv.FormatInt(id, 10))
	}
	start := time.Now()
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return resp.StatusCode, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, lat, fmt.Errorf("%s", bytes.TrimSpace(data))
	}
	return resp.StatusCode, lat, json.Unmarshal(data, out)
}

// check verifies one resolve answer: current (not a degraded stale
// answer, not from a future epoch) and valid against the replica.
func (e *env) check(roots []string, rr serve.ResolveResponse) error {
	if rr.Degraded {
		return errors.New("degraded (stale) answer")
	}
	if rr.Epoch > uint64(e.replica.Epoch()) {
		return fmt.Errorf("answer epoch %d ahead of replica epoch %d", rr.Epoch, e.replica.Epoch())
	}
	return checkAnswer(e.replica, roots, rr.Picks)
}

// effort sums the per-answer effort the daemon reports.
type effort struct {
	answers, cacheHits, memoHits, misses int64
	solveCalls                           int64
	conflicts, decisions, propagations   int64
}

func (f *effort) add(s serve.StatsResponse) {
	f.answers++
	if s.SolutionCacheHit {
		f.cacheHits++
		return
	}
	f.misses++
	if s.BoundMemoHit {
		f.memoHits++
	}
	f.solveCalls += int64(s.SolveCalls)
	f.conflicts += s.Conflicts
	f.decisions += s.Decisions
	f.propagations += s.Propagations
}

func (f *effort) merge(g effort) {
	f.answers += g.answers
	f.cacheHits += g.cacheHits
	f.memoHits += g.memoHits
	f.misses += g.misses
	f.solveCalls += g.solveCalls
	f.conflicts += g.conflicts
	f.decisions += g.decisions
	f.propagations += g.propagations
}

// opLat is one timed resolve of a traced run: its operation id and
// client latency.
type opLat struct {
	id  int64
	lat time.Duration
}

// clientLog is what one client observed. Each client owns its log; the
// logs are merged after the clients stop.
type clientLog struct {
	client            int
	attempted, failed int
	status            map[int]int
	failures          []string
	resolveLat        hist    // timed resolves
	windows           []int   // timed resolves completed, per rateWindow
	traced            []opLat // timed resolves, traced runs only
	applyLat          hist    // every apply after set-up
	repoApply         hist    // the same deltas on the replica
	all, prefix       effort  // timed phase; its first countedOps ops
	samples           []sample
}

func newLog() *clientLog { return &clientLog{status: map[int]int{}} }

func (c *clientLog) fail(id int64, what string, status int, err error) {
	c.failed++
	c.failures = append(c.failures, fmt.Sprintf("op %d: %s: status %d: %v", id, what, status, err))
}

// countWindow adds n completed resolves to window i.
func (c *clientLog) countWindow(i, n int) {
	for len(c.windows) <= i {
		c.windows = append(c.windows, 0)
	}
	c.windows[i] += n
}

func (c *clientLog) merge(d *clientLog) {
	c.attempted += d.attempted
	c.failed += d.failed
	for k, v := range d.status {
		c.status[k] += v
	}
	c.failures = append(c.failures, d.failures...)
	c.resolveLat.merge(&d.resolveLat)
	for i, n := range d.windows {
		c.countWindow(i, n)
	}
	c.traced = append(c.traced, d.traced...)
	c.applyLat.merge(&d.applyLat)
	c.repoApply.merge(&d.repoApply)
	c.all.merge(d.all)
	c.prefix.merge(d.prefix)
	c.samples = append(c.samples, d.samples...)
}

// do runs one operation. index is the operation's position in a timed
// client stream, or -1 outside the timed phase.
func (e *env) do(o op, c *clientLog, index int) {
	id := e.opID.Add(1)
	c.attempted++
	if o.apply != nil {
		var ar serve.ApplyResponse
		what := "apply " + o.apply.pkg + "@" + o.apply.ver
		status, lat, err := e.post("/v1/apply", o.apply.wire(), id, &ar)
		c.status[status]++
		if err != nil {
			c.fail(id, what, status, err)
			return
		}
		start := time.Now()
		epoch, err := e.replica.Apply(o.apply.delta())
		c.repoApply.add(time.Since(start))
		e.deltas = append(e.deltas, o.apply)
		switch {
		case err != nil:
			c.fail(id, what, status, fmt.Errorf("replica: %v", err))
		case uint64(epoch) != ar.Epoch:
			c.fail(id, what, status, fmt.Errorf("daemon epoch %d, replica epoch %d", ar.Epoch, epoch))
		default:
			c.applyLat.add(lat)
		}
		return
	}
	var rr serve.ResolveResponse
	status, lat, err := e.post("/v1/resolve", o.req, id, &rr)
	c.status[status]++
	if err == nil {
		err = e.check(o.req.Roots, rr)
	}
	if err != nil {
		c.fail(id, fmt.Sprintf("resolve %v objective=%q installed=%v", o.req.Roots, o.req.Objective, o.req.Installed), status, err)
		return
	}
	if index < 0 {
		return
	}
	c.resolveLat.add(lat)
	c.countWindow(int(time.Since(e.phaseStart)/rateWindow), 1)
	if e.rec != nil {
		c.traced = append(c.traced, opLat{id, lat})
	}
	c.all.add(rr.Stats)
	if c.client > 0 {
		return
	}
	if index < countedOps {
		c.prefix.add(rr.Stats)
	}
	if e.wanted[index] {
		// Re-solve at the replica's current epoch: a cached answer that
		// survived a delta must still be optimal there.
		c.samples = append(c.samples, sample{index: index, epoch: e.replica.Epoch(), req: o.req, resp: rr})
	}
}

// pass is the outcome of one set-up plus timed phase.
type pass struct {
	w                      *workload
	setup                  []time.Duration
	heapMB                 float64
	elapsed                time.Duration
	log                    *clientLog
	rps                    float64
	resolveP50, resolveP90 time.Duration
	applyP50               time.Duration
	resampled              int
	srvDelta               serve.ServerStats
	poolDelta              resolve.PoolStats
	solverVars             int
	spans                  []span
}

// runPass sets up before times (serving from the last daemon), measures
// the live heap, drives the workload for dur (and on, up to countedOps
// operations on a one-client workload), runs the apply probe, re-solves
// the kept samples, and sets up after more times. maxOps > 0 caps the
// operations per client.
func runPass(w *workload, seed int64, dur time.Duration, maxOps int, traced bool, before, after int) (*pass, error) {
	p := &pass{w: w, log: newLog()}
	var e *env
	for i := 0; i < before; i++ {
		if e != nil {
			e.close()
		}
		var err error
		if e, err = p.setUp(seed, traced); err != nil {
			return nil, err
		}
	}
	p.drive(e, seed, dur, maxOps)
	e.close()
	for i := 0; i < after; i++ {
		extra, err := p.setUp(seed, traced)
		if err != nil {
			return nil, err
		}
		extra.close()
	}
	return p, nil
}

// setUp sets up one daemon, recording its set-up time and checking its
// warm-up answers.
func (p *pass) setUp(seed int64, traced bool) (*env, error) {
	runtime.GC()
	e, took, err := setUp(seed, traced, p.log)
	if err != nil {
		return nil, err
	}
	p.setup = append(p.setup, took)
	return e, nil
}

// drive measures one set-up daemon: its live heap, the timed phase, the
// apply probe and the re-solve of the kept answers.
func (p *pass) drive(e *env, seed int64, dur time.Duration, maxOps int) {
	w := p.w
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	p.heapMB = float64(mem.HeapAlloc) / (1 << 20)
	for _, sh := range e.pool.Stats().Shard {
		p.solverVars += sh.Encoding.SolverVars
	}

	e.wanted = map[int]bool{}
	rng := streamRand(seed, streamSample)
	for len(e.wanted) < resampleN {
		e.wanted[rng.Intn(countedOps)] = true
	}
	srv0, pool0 := e.srv.Stats(), e.pool.Stats()
	logs := make([]*clientLog, w.clients)
	minOps := 0
	if w.clients == 1 {
		minOps = countedOps
	}
	if maxOps > 0 {
		minOps = min(minOps, maxOps)
	}
	e.phaseStart = time.Now()
	deadline := e.phaseStart.Add(dur)
	var wg sync.WaitGroup
	for c := range logs {
		logs[c] = newLog()
		logs[c].client = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen := w.gen(e, c)
			for n := 0; (n < minOps || time.Now().Before(deadline)) && (maxOps == 0 || n < maxOps); n++ {
				e.do(gen.next(e.replica), logs[c], n)
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(e.phaseStart)
	srv1, pool1 := e.srv.Stats(), e.pool.Stats()
	for _, l := range logs {
		p.log.merge(l)
	}

	// The probe gives packages outside the hot set's closures a newer
	// version, so it touches no cached answer.
	pkgs := &deck{rng: streamRand(seed, streamProbe), n: rootFloor}
	for i := 0; i < w.probeApplies; i++ {
		e.do(op{apply: nextVersionAdd(pkgs.deal(), e.replica)}, p.log, -1)
	}
	for _, s := range p.log.samples {
		if err := resolveSample(e.deltas, s); err != nil {
			p.log.fail(0, fmt.Sprintf("re-solve of stream op %d %v", s.index, s.req.Roots), http.StatusOK, err)
		}
		p.resampled++
	}
	if e.rec != nil {
		p.spans = e.rec.spans
	}

	p.resolveP50, p.resolveP90 = p.log.resolveLat.quantile(0.5), p.log.resolveLat.quantile(0.9)
	p.applyP50 = p.log.applyLat.quantile(0.5)
	p.rps = windowRate(p.log.windows, p.elapsed)
	p.srvDelta = serve.ServerStats{
		Requests:  srv1.Requests - srv0.Requests,
		Coalesced: srv1.Coalesced - srv0.Coalesced,
		Retries:   srv1.Retries - srv0.Retries,
		Shed:      srv1.Shed - srv0.Shed,
		Degraded:  srv1.Degraded - srv0.Degraded,
		Timeouts:  srv1.Timeouts - srv0.Timeouts,
	}
	p.poolDelta = resolve.PoolStats{Hits: pool1.Hits - pool0.Hits, Steals: pool1.Steals - pool0.Steals}
	for i := range pool1.Shard {
		p.poolDelta.Shard = append(p.poolDelta.Shard, resolve.ShardStats{Served: pool1.Shard[i].Served - pool0.Shard[i].Served})
	}
}

// rateWindow is the interval resolve_rps counts completions over.
const rateWindow = time.Second

// windowRate is the median, over the whole rateWindows of the timed phase,
// of resolves completed per second. A rare solve that stalls the closed
// loop for a second moves one window, not the run's rate; the stall still
// shows in the latency quantiles.
func windowRate(windows []int, elapsed time.Duration) float64 {
	n := int(elapsed / rateWindow)
	if n == 0 {
		total := 0
		for _, c := range windows {
			total += c
		}
		return float64(total) / elapsed.Seconds()
	}
	counts := make([]float64, n)
	for i := range counts {
		if i < len(windows) {
			counts[i] = float64(windows[i])
		}
	}
	slices.Sort(counts)
	med := counts[n/2]
	if n%2 == 0 {
		med = (counts[n/2-1] + counts[n/2]) / 2
	}
	return med / rateWindow.Seconds()
}

// quantile is the nearest-rank q-quantile (0 for an empty sample).
func quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := slices.Clone(d)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.999999) - 1
	return s[max(0, min(i, len(s)-1))]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (p *pass) okRatio() float64 {
	return float64(p.log.attempted-p.log.failed) / float64(p.log.attempted)
}

func (p *pass) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":        {quantile(p.setup, 0.5).Seconds(), "s"},
		"resolve_rps":    {p.rps, "1/s"},
		"resolve_p50_ms": {ms(p.resolveP50), "ms"},
		"resolve_p90_ms": {ms(p.resolveP90), "ms"},
		"apply_p50_ms":   {ms(p.applyP50), "ms"},
		"heap_mb":        {p.heapMB, "MB"},
		"ok_ratio":       {p.okRatio(), "ratio"},
	}
}

// perLayer derives the layer metrics of a traced pass from its spans, the
// answers' effort reports and the daemon's counters.
func (p *pass) perLayer() map[string]metric {
	backend := map[int64]time.Duration{}
	var calls, applies []time.Duration
	timedIDs := map[int64]bool{}
	for _, t := range p.log.traced {
		timedIDs[t.id] = true
	}
	for _, s := range p.spans {
		d := s.end.Sub(s.start)
		switch s.name {
		case "resolve.call":
			backend[s.op] += d
			if timedIDs[s.op] {
				calls = append(calls, d)
			}
		case "resolve.apply":
			applies = append(applies, d)
		}
	}
	self := make([]time.Duration, len(p.log.traced))
	for i, t := range p.log.traced {
		self[i] = t.lat - backend[t.id]
	}
	var served uint64
	for _, sh := range p.poolDelta.Shard {
		served += sh.Served
	}
	sd, all, pre := p.srvDelta, p.log.all, p.log.prefix
	return map[string]metric{
		"serve.self_p50_ms":               {ms(quantile(self, 0.5)), "ms"},
		"serve.self_p90_ms":               {ms(quantile(self, 0.9)), "ms"},
		"serve.coalesced_ratio":           {ratio(sd.Coalesced, sd.Requests), "ratio"},
		"serve.retries":                   {float64(sd.Retries), "count"},
		"serve.shed":                      {float64(sd.Shed), "count"},
		"serve.degraded":                  {float64(sd.Degraded), "count"},
		"serve.timeouts":                  {float64(p.log.status[http.StatusGatewayTimeout]), "count"},
		"serve.unavailable":               {float64(p.log.status[http.StatusServiceUnavailable]), "count"},
		"resolve.call_p50_ms":             {ms(quantile(calls, 0.5)), "ms"},
		"resolve.call_p90_ms":             {ms(quantile(calls, 0.9)), "ms"},
		"resolve.apply_p50_ms":            {ms(quantile(applies, 0.5)), "ms"},
		"resolve.pool_hit_ratio":          {ratio(int64(p.poolDelta.Hits), int64(served)), "ratio"},
		"resolve.pool_steal_ratio":        {ratio(int64(p.poolDelta.Steals), int64(served)), "ratio"},
		"concretize.cache_hit_ratio":      {ratio(all.cacheHits, all.answers), "ratio"},
		"concretize.memo_hit_ratio":       {ratio(all.memoHits, all.misses), "ratio"},
		"concretize.solve_calls_per_miss": {ratio(all.solveCalls, all.misses), "count"},
		"concretize.solver_vars":          {float64(p.solverVars), "count"},
		"sat.conflicts_per_miss":          {ratio(pre.conflicts, pre.misses), "count"},
		"sat.decisions_per_miss":          {ratio(pre.decisions, pre.misses), "count"},
		"sat.propagations_per_miss":       {ratio(pre.propagations, pre.misses), "count"},
		"repo.apply_p50_ms":               {ms(p.log.repoApply.quantile(0.5)), "ms"},
	}
}

// print writes the pass's human-readable report: every end-to-end metric
// with its sample count, the status and failure record, and the solver
// effort totals of the counted prefix.
func (p *pass) print(label string) {
	l := p.log
	fmt.Printf("%ssetup_s %.4f s (median of %d: %v)\n", label, quantile(p.setup, 0.5).Seconds(), len(p.setup), p.setup)
	n := l.resolveLat.n
	fmt.Printf("%sresolve_rps %.1f 1/s (median of %d one-second windows; %d resolves in %v, %.1f 1/s overall)\n", label,
		p.rps, int(p.elapsed/rateWindow), n, p.elapsed.Round(time.Millisecond), float64(n)/p.elapsed.Seconds())
	fmt.Printf("%sresolve_p50_ms %.4f ms (n=%d)\n", label, ms(p.resolveP50), n)
	fmt.Printf("%sresolve_p90_ms %.4f ms (n=%d)\n", label, ms(p.resolveP90), n)
	fmt.Printf("%sapply_p50_ms %.4f ms (n=%d)\n", label, ms(p.applyP50), l.applyLat.n)
	fmt.Printf("%sheap_mb %.3f MB\n", label, p.heapMB)
	fmt.Printf("%sok_ratio %.6f (%d of %d ok)\n", label, p.okRatio(), l.attempted-l.failed, l.attempted)
	fmt.Printf("%sstatus: 200=%d timeout_504=%d unavailable_503=%d shed_429=%d other=%d check_failed=%d\n", label,
		l.status[200], l.status[504], l.status[503], l.status[429],
		l.attempted-l.status[200]-l.status[504]-l.status[503]-l.status[429], l.failed-(l.attempted-l.status[200]))
	for _, f := range l.failures {
		fmt.Printf("%sFAILED %s\n", label, f)
	}
	pre := l.prefix
	fmt.Printf("%seffort: first %d answers of client 0: misses=%d conflicts=%d propagations=%d decisions=%d\n",
		label, pre.answers, pre.misses, pre.conflicts, pre.propagations, pre.decisions)
	fmt.Printf("%sresample: %d answers re-solved on a fresh one-shot session\n", label, p.resampled)
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" where
// there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
