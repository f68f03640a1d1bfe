package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/ignorecomply/consensus/internal/rng"
	"github.com/ignorecomply/consensus/internal/serve"
	"github.com/ignorecomply/consensus/scenario"
	"github.com/ignorecomply/consensus/scenarios"
)

// missScenarios are the checked-in scenarios whose quick suite finishes
// well under a second on one suite worker, with each one's share of a
// cycle of misses. The weights put both the median and the 90th
// percentile inside the block of e03/e04 misses (10 of 18), the longest
// suites (about 0.4 s): a percentile on the edge between two suites of
// different cost jumps between runs, and a short suite's latency swings
// with the scheduler's 10 ms time slices and with which miss of the other
// client it queues behind. In sizing this halved the run-to-run spread of
// miss_p50_ms against weights that put it among the 0.1 s e05 misses.
var missScenarios = []struct {
	file   string
	weight int
}{
	{"e13_fastforward.json", 1},
	{"e07_counterexample.json", 1},
	{"e08_biased.json", 1},
	{"e06_expectation.json", 1},
	{"n02_network_loss.json", 1},
	{"n01_network_latency.json", 1},
	{"e05_duality.json", 1},
	{"e10_byzantine.json", 1},
	{"e04_voter_reduction.json", 5},
	{"e03_dominance.json", 5},
}

const (
	// serveClients is the number of closed-loop clients.
	serveClients = 2
	// hitsPerMiss resubmissions of completed keys follow every miss.
	hitsPerMiss = 10
	// joinScenario is the suite both clients submit together at the end
	// of every cycle; it runs long enough that the second submission
	// finds the first still in flight.
	joinScenario = "e05_duality.json"
	// warmupScenario is the set-up's untimed miss and hit.
	warmupScenario = "e05_duality.json"
)

// serveScenario is one checked-in scenario as the clients submit it.
type serveScenario struct {
	file string
	body []byte
	// variants are cosmetic re-encodings (sorted keys, other whitespace)
	// that canonicalize to the same cache key as body.
	variants [][]byte
	runs     int
}

type opKind int

const (
	opMiss opKind = iota
	opHit
	opJoin
)

// op is one request of a client's plan.
type op struct {
	kind opKind
	scen int
	seed uint64
	// pick selects, for a hit, one of the client's completed keys and the
	// variant to resubmit it as.
	pick uint64
	// join indexes the pass's join barriers.
	join int
}

// jobKey is a result the server caches: a scenario at a seed (the scale
// is always quick).
type jobKey struct {
	scen int
	seed uint64
}

// reqRecord is one completed request as a client saw it.
type reqRecord struct {
	kind  opKind
	key   jobKey
	code  int
	cache string
	body  []byte
	timing
	err error
}

// serveBench drives an in-process consensus-serve on a loopback listener
// from a closed loop of clients, each waiting for its reply.
type serveBench struct {
	scens  []serveScenario
	plans  [][]op
	cycles int
	// decode and hash are the set-up costs of each scenario.
	decode, hash []time.Duration
	warm         serveCounts

	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	// metrics is the server's /metrics after the last pass.
	metrics map[string]float64
}

func setupServe(ctx context.Context, seed uint64, cycles int) (*serveBench, error) {
	b := &serveBench{cycles: cycles}
	weights := make([]int, len(missScenarios))
	join, warm := -1, -1
	for i, ms := range missScenarios {
		sc, d, h, err := loadScenario(ms.file)
		if err != nil {
			return nil, err
		}
		b.scens = append(b.scens, sc)
		b.decode = append(b.decode, d)
		b.hash = append(b.hash, h)
		weights[i] = ms.weight
		if ms.file == joinScenario {
			join = i
		}
		if ms.file == warmupScenario {
			warm = i
		}
	}
	b.plans = servePlans(seed, cycles, weights, join)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b.srv = serve.NewServer(serve.Config{
		// One job on one suite worker at a time: two concurrent suites made
		// the peak RSS swing by a tenth with which suites overlapped. The
		// other client's miss waits in the queue (serve.queue_wait_ms_p50).
		JobWorkers:   1,
		SuiteWorkers: 1,
		Log:          log.New(os.Stderr, "consensus-serve: ", 0),
	})
	b.hs = &http.Server{Handler: b.srv, ReadHeaderTimeout: 10 * time.Second}
	b.served = make(chan error, 1)
	go func() { b.served <- b.hs.Serve(ln) }()
	b.base = "http://" + ln.Addr().String()
	// A Transport without a Proxy function: requests go to the loopback
	// listener only.
	b.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}}

	// Warm-up: one miss and one hit at the fixed warm-up seed, which no
	// timed request uses.
	key := jobKey{scen: warm, seed: warmupSeed}
	miss := b.do(ctx, opMiss, key, b.scens[warm].body, nil)
	hit := b.do(ctx, opHit, key, b.scens[warm].variants[1], nil)
	b.warm = serveCounts{misses: 1, hits: 1}
	for _, r := range []reqRecord{miss, hit} {
		if r.err == nil {
			_, r.err = checkDone(r.body)
		}
		if r.err != nil {
			b.close()
			return nil, fmt.Errorf("warm-up: %w", r.err)
		}
	}
	if err := checkSameBody(miss.body, hit.body); err != nil {
		b.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return b, nil
}

// loadScenario reads an embedded scenario and times its decode and hash.
func loadScenario(file string) (serveScenario, time.Duration, time.Duration, error) {
	sc := serveScenario{file: file}
	body, err := scenarios.Read(file)
	if err != nil {
		return sc, 0, 0, err
	}
	sc.body = body
	t0 := time.Now()
	s, err := scenario.DecodeBytes(body)
	if err != nil {
		return sc, 0, 0, fmt.Errorf("%s: %w", file, err)
	}
	t1 := time.Now()
	if _, err := scenario.Hash(s); err != nil {
		return sc, 0, 0, fmt.Errorf("%s: %w", file, err)
	}
	t2 := time.Now()
	if s.Kind != scenario.KindCustom {
		specs, err := s.Expand(scenario.Params{Seed: 1, Scale: scenario.Quick})
		if err != nil {
			return sc, 0, 0, fmt.Errorf("%s: %w", file, err)
		}
		sc.runs = len(specs)
	}
	for _, indent := range []string{"", "  ", "\t", "    "} {
		out, err := reencode(body, indent)
		if err != nil {
			return sc, 0, 0, fmt.Errorf("%s: %w", file, err)
		}
		sc.variants = append(sc.variants, out)
	}
	return sc, t1.Sub(t0), t2.Sub(t1), nil
}

// servePlans builds each client's requests: per cycle, the weighted miss
// slots in a seed-shuffled order, each miss at a fresh seed and followed
// by hitsPerMiss hits, then one join that both clients submit together.
func servePlans(seed uint64, cycles int, weights []int, join int) [][]op {
	var slots []int
	for i, w := range weights {
		for j := 0; j < w; j++ {
			slots = append(slots, i)
		}
	}
	plans := make([][]op, serveClients)
	for c := range plans {
		r := rng.New(seedFor(seed, 1<<40|uint64(c)))
		misses := 0
		for cy := 0; cy < cycles; cy++ {
			order := append([]int(nil), slots...)
			for i := len(order) - 1; i > 0; i-- {
				j := int(r.Uint64() % uint64(i+1))
				order[i], order[j] = order[j], order[i]
			}
			for _, s := range order {
				plans[c] = append(plans[c], op{kind: opMiss, scen: s, seed: seedFor(seed, uint64(c)<<32|uint64(misses))})
				misses++
				for h := 0; h < hitsPerMiss; h++ {
					plans[c] = append(plans[c], op{kind: opHit, pick: r.Uint64()})
				}
			}
			plans[c] = append(plans[c], op{kind: opJoin, scen: join, seed: seedFor(seed, 2<<32|uint64(cy)), join: cy})
		}
	}
	return plans
}

// reencode rewrites a JSON document with its object keys sorted (the
// checked-in files list them in schema order) and the given indent
// (compact when empty). Numbers keep their literal text, so the result is a
// cosmetic variant.
func reencode(body []byte, indent string) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	if indent == "" {
		return json.Marshal(v)
	}
	return json.MarshalIndent(v, "", indent)
}

// post submits a scenario body at a seed; wait asks the server to answer
// only once the job is terminal.
func (b *serveBench) post(ctx context.Context, body []byte, seed uint64, wait bool) (int, string, []byte, error) {
	url := b.base + "/jobs?scale=quick&seed=" + strconv.FormatUint(seed, 10)
	if wait {
		url += "&wait=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	return b.send(req)
}

func (b *serveBench) get(ctx context.Context, path string) (int, string, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+path, nil)
	if err != nil {
		return 0, "", nil, err
	}
	return b.send(req)
}

func (b *serveBench) send(req *http.Request) (int, string, []byte, error) {
	resp, err := b.client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), data, err
}

// do submits one request and waits for its terminal reply. A traced miss
// is submitted without wait and followed on its SSE stream, so the
// client's event receive times split it into submit, stream connect,
// queue wait, execute (prepare, run, reduce+expect) and deliver; an
// untraced one is a single wait=1 request.
func (b *serveBench) do(ctx context.Context, kind opKind, key jobKey, body []byte, tr *tracer) reqRecord {
	rec := reqRecord{kind: kind, key: key}
	t0 := time.Now()
	rec.start = t0
	if tr == nil || kind != opMiss {
		rec.code, rec.cache, rec.body, rec.err = b.post(ctx, body, key.seed, true)
		rec.lat = time.Since(t0)
		if rec.err == nil && rec.code != http.StatusOK {
			rec.err = fmt.Errorf("POST /jobs: HTTP %d: %s", rec.code, bytes.TrimSpace(rec.body))
		}
		if tr != nil {
			tr.add([]string{opMiss: "serve.miss", opHit: "serve.hit", opJoin: "serve.join"}[kind], "", 0, t0, t0.Add(rec.lat))
		}
		return rec
	}

	code, cache, data, err := b.post(ctx, body, key.seed, false)
	t1 := time.Now()
	rec.code, rec.cache = code, cache
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("POST /jobs: HTTP %d: %s", code, bytes.TrimSpace(data))
	}
	var v jobView
	if err == nil {
		err = json.Unmarshal(data, &v)
	}
	var ev streamTimes
	if err == nil {
		ev, err = b.stream(ctx, v.ID)
	}
	if err == nil {
		rec.code, _, rec.body, err = b.get(ctx, "/jobs/"+v.ID)
	}
	end := time.Now()
	rec.lat, rec.err = end.Sub(t0), err
	if err != nil {
		return rec
	}
	fam := b.scens[key.scen].file
	root := tr.add("serve.miss", fam, 0, t0, end)
	tr.add("serve.submit", fam, root, t0, t1)
	tr.add("serve.stream_connect", fam, root, t1, ev.queued)
	tr.add("serve.queue_wait", fam, root, ev.queued, ev.running)
	exec := tr.add("serve.execute", fam, root, ev.running, ev.done)
	if !ev.suiteStart.IsZero() && !ev.lastRunDone.IsZero() {
		tr.add("scenario.prepare", fam, exec, ev.running, ev.suiteStart)
		tr.add("sim.execute", fam, exec, ev.suiteStart, ev.lastRunDone)
		tr.add("scenario.reduce_expect", fam, exec, ev.lastRunDone, ev.done)
	}
	tr.add("serve.deliver", fam, root, ev.done, end)
	return rec
}

// streamTimes are the client's receive times of a job's SSE events.
type streamTimes struct {
	queued, running, suiteStart, lastRunDone, done time.Time
}

// stream follows GET /jobs/{id}/stream to the terminal event.
func (b *serveBench) stream(ctx context.Context, id string) (streamTimes, error) {
	var st streamTimes
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/jobs/"+id+"/stream", nil)
	if err != nil {
		return st, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /jobs/%s/stream: HTTP %d", id, resp.StatusCode)
	}
	r := bufio.NewReader(resp.Body)
	var name, data string
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return st, fmt.Errorf("stream of job %s ended before a terminal event: %w", id, err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "":
			now := time.Now()
			switch name {
			case "status":
				var s struct{ Status string }
				if err := json.Unmarshal([]byte(data), &s); err != nil {
					return st, err
				}
				if s.Status == "queued" {
					st.queued = now
				} else if s.Status == "running" {
					st.running = now
				}
			case "progress":
				var p scenario.ProgressEvent
				if err := json.Unmarshal([]byte(data), &p); err != nil {
					return st, err
				}
				if p.Kind == scenario.ProgressSuiteStart {
					st.suiteStart = now
				} else if p.Kind == scenario.ProgressRunDone {
					st.lastRunDone = now
				}
			case "done":
				st.done = now
				if st.running.IsZero() {
					st.running = st.queued
				}
				return st, nil
			case "failed", "cancelled":
				return st, fmt.Errorf("job %s %s: %s", id, name, data)
			}
			name, data = "", ""
		}
	}
}

func (b *serveBench) pass(ctx context.Context, tr *tracer) *passStats {
	clients := len(b.plans)
	joins := make([]sync.WaitGroup, b.cycles)
	for i := range joins {
		joins[i].Add(clients)
	}
	recs := make([][]reqRecord, clients)
	finished := make([]time.Time, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			recs[c] = b.runPlan(ctx, b.plans[c], joins, tr)
			finished[c] = time.Now()
		}(c)
	}
	wg.Wait()
	end := time.Now()
	st := &passStats{clients: clients, start: start, wall: end.Sub(start)}
	traceIdle(tr, finished, end)
	b.check(ctx, st, recs)
	return st
}

// runPlan executes one client's plan and returns its records in order.
func (b *serveBench) runPlan(ctx context.Context, plan []op, joins []sync.WaitGroup, tr *tracer) []reqRecord {
	recs := make([]reqRecord, 0, len(plan))
	var completed []jobKey
	for _, o := range plan {
		switch o.kind {
		case opMiss:
			key := jobKey{scen: o.scen, seed: o.seed}
			rec := b.do(ctx, opMiss, key, b.scens[o.scen].body, tr)
			if rec.err == nil {
				completed = append(completed, key)
			}
			recs = append(recs, rec)
		case opHit:
			if len(completed) == 0 {
				continue
			}
			key := completed[o.pick%uint64(len(completed))]
			variants := b.scens[key.scen].variants
			body := variants[(o.pick>>32)%uint64(len(variants))]
			if tr != nil {
				// The scenario layer's share of a hit: the decode and hash
				// the server runs on every submitted body.
				t0 := time.Now()
				if s, err := scenario.DecodeBytes(body); err == nil {
					_, _ = scenario.Hash(s) // the request below reports any error
				}
				tr.add("serve.hit.decode_hash", "", 0, t0, time.Now())
			}
			recs = append(recs, b.do(ctx, opHit, key, body, tr))
		case opJoin:
			t0 := time.Now()
			joins[o.join].Done()
			joins[o.join].Wait()
			tr.add("client.join_wait", "", 0, t0, time.Now())
			key := jobKey{scen: o.scen, seed: o.seed}
			recs = append(recs, b.do(ctx, opJoin, key, b.scens[o.scen].body, tr))
		}
	}
	return recs
}

// check runs the correctness checks of a pass, after its timed window:
// every reply is a done job, intended hits and misses are served as such,
// every hit (and joined reply) is byte-identical to its key's miss, and
// the server's counters match the clients' counts.
func (b *serveBench) check(ctx context.Context, st *passStats, recs [][]reqRecord) {
	missBody := map[jobKey][]byte{}
	var counts serveCounts
	for _, cr := range recs {
		for _, r := range cr {
			if r.cache == "miss" && r.err == nil {
				missBody[r.key] = r.body
			}
		}
	}
	for _, cr := range recs {
		for _, r := range cr {
			st.attempted++
			switch r.cache {
			case "miss":
				counts.misses++
			case "hit":
				counts.hits++
			case "join":
				counts.joins++
			}
			if r.code == http.StatusTooManyRequests {
				counts.rejected++
			}
			if r.err != nil {
				st.fail(r.err)
				continue
			}
			v, err := checkDone(r.body)
			if err != nil {
				st.fail(err)
				continue
			}
			switch {
			case r.kind == opMiss && r.cache != "miss", r.kind == opHit && r.cache != "hit":
				err = fmt.Errorf("job %s: served as %q", v.ID, r.cache)
			case r.cache != "miss":
				err = checkSameBody(missBody[r.key], r.body)
			}
			if err != nil {
				st.fail(fmt.Errorf("job %s: %w", v.ID, err))
				continue
			}
			st.requests++
			switch r.cache {
			case "miss":
				st.runs += b.scens[r.key.scen].runs
				st.violations += len(v.Result.Report.Violations)
				st.miss = append(st.miss, r.timing)
			case "hit":
				st.hit = append(st.hit, r.timing)
			}
		}
	}
	m, err := b.scrape(ctx)
	if err != nil {
		st.fail(err)
		return
	}
	b.metrics = m
	counts.misses += b.warm.misses
	counts.hits += b.warm.hits
	for _, err := range checkCounters(m, counts) {
		st.fail(err)
	}
}

// scrape reads the server's /metrics counters and gauges.
func (b *serveBench) scrape(ctx context.Context) (map[string]float64, error) {
	code, _, data, err := b.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", code)
	}
	m := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		m[name] = v
	}
	return m, nil
}

// layers derives the per-layer metrics: hit latencies from the untraced
// pass, the phases of traced misses, and the server's cache and admission
// counters.
func (b *serveBench) layers(untraced, traced *passStats, tr *tracer) map[string]float64 {
	m := b.metrics
	submitted := m["consensus_serve_submitted_total"]
	hit := latencies(untraced.hit, nil)
	return map[string]float64{
		"scenario.decode_ms":         meanMS(b.decode),
		"scenario.hash_ms":           meanMS(b.hash),
		"scenario.prepare_ms":        meanMS(tr.byName("scenario.prepare", "")),
		"scenario.execute_s":         total(tr.byName("sim.execute", "")).Seconds(),
		"scenario.reduce_expect_ms":  meanMS(tr.byName("scenario.reduce_expect", "")),
		"scenario.runs":              float64(traced.runs),
		"scenario.expect_violations": float64(traced.violations),
		"serve.hit.decode_hash_ms":   meanMS(tr.byName("serve.hit.decode_hash", "")),
		"serve.hit_p50_ms":           ms(quantile(hit, 0.5)),
		"serve.hit_p90_ms":           ms(quantile(hit, 0.9)),
		"serve.hit_p99_ms":           ms(quantile(hit, 0.99)),
		"serve.queue_wait_ms_p50":    ms(quantile(tr.byName("serve.queue_wait", ""), 0.5)),
		"serve.execute_ms_p50":       ms(quantile(tr.byName("serve.execute", ""), 0.5)),
		"serve.deliver_ms_p50":       ms(quantile(tr.byName("serve.deliver", ""), 0.5)),
		"serve.hit_ratio":            ratio(m["consensus_serve_cache_hits_total"], submitted),
		"serve.join_ratio":           ratio(m["consensus_serve_joined_total"], submitted),
		"serve.rejected":             m["consensus_serve_rejected_total"],
		"serve.executed":             m["consensus_serve_executed_total"],
		"serve.cache_bytes":          m["consensus_serve_cache_bytes"],
		"serve.cache_evictions":      m["consensus_serve_cache_evictions"],
	}
}

// close stops the HTTP server and drains the daemon, waiting for both.
func (b *serveBench) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := b.hs.Shutdown(ctx)
	if derr := b.srv.Drain(ctx); err == nil {
		err = derr
	}
	if serr := <-b.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	b.client.CloseIdleConnections()
	return err
}
