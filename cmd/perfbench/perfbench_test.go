package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/ignorecomply/consensus/scenario"
)

func TestSameSeedSameDocuments(t *testing.T) {
	for _, fams := range [][]family{paperFamilies, pernodeFamilies} {
		a, err := suiteDocs(fams, 7, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := suiteDocs(fams, 7, 3)
		if err != nil {
			t.Fatal(err)
		}
		c, err := suiteDocs(fams, 8, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if !bytes.Equal(a[i].body, b[i].body) || a[i].seed != b[i].seed {
				t.Fatalf("%s: same seed, different document", a[i].name)
			}
			if a[i].seed == c[i].seed {
				t.Fatalf("%s: seeds 7 and 8 run at the same suite seed", a[i].name)
			}
			if _, err := scenario.DecodeBytes(a[i].body); err != nil {
				t.Fatalf("%s: %v", a[i].name, err)
			}
		}
	}
}

// missKeys lists the (scenario, seed) keys a plan submits as misses or
// joins.
func missKeys(plans [][]op) map[jobKey]bool {
	keys := map[jobKey]bool{}
	for _, p := range plans {
		for _, o := range p {
			if o.kind != opHit {
				keys[jobKey{o.scen, o.seed}] = true
			}
		}
	}
	return keys
}

func TestServePlansDeterministicAndDistinct(t *testing.T) {
	weights := []int{1, 2, 3}
	a := servePlans(7, 2, weights, 0)
	b := servePlans(7, 2, weights, 0)
	for c := range a {
		if len(a[c]) != len(b[c]) {
			t.Fatal("same seed, different plan lengths")
		}
		for i := range a[c] {
			if a[c][i] != b[c][i] {
				t.Fatalf("client %d op %d: same seed, different op", c, i)
			}
		}
	}
	ka, kb := missKeys(a), missKeys(servePlans(8, 2, weights, 0))
	for k := range ka {
		if kb[k] {
			t.Fatalf("seeds 7 and 8 share the serve key %+v", k)
		}
	}
	// Every cycle holds one join per client on the same key, and every
	// other key is submitted once.
	if want := len(a)*2*6 + 2; len(ka) != want {
		t.Fatalf("%d distinct keys, want %d", len(ka), want)
	}
}

func TestVariantsShareTheCacheKey(t *testing.T) {
	for _, ms := range missScenarios {
		sc, _, _, err := loadScenario(ms.file)
		if err != nil {
			t.Fatal(err)
		}
		want := hashOf(t, sc.body)
		for i, v := range sc.variants {
			if bytes.Equal(v, sc.body) {
				t.Errorf("%s variant %d is the original bytes", ms.file, i)
			}
			if got := hashOf(t, v); got != want {
				t.Errorf("%s variant %d hashes to %s, want %s", ms.file, i, got, want)
			}
		}
	}
}

func hashOf(t *testing.T, body []byte) string {
	t.Helper()
	s, err := scenario.DecodeBytes(body)
	if err != nil {
		t.Fatal(err)
	}
	h, err := scenario.Hash(s)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestChecksCatchPlantedFaults(t *testing.T) {
	good := runFacts{n: 100, sum: 100, rounds: 10, exact: 10, messages: 2 * 100 * 3 * 10, lossless: true, h: 3}
	if err := checkRun(good); err != nil {
		t.Fatalf("good run: %v", err)
	}
	hybrid := runFacts{n: 100, sum: 100, rounds: 10, exact: 6, skipped: 4, hybrid: true}
	if err := checkRun(hybrid); err != nil {
		t.Fatalf("good hybrid run: %v", err)
	}
	faults := map[string]func(f *runFacts){
		"counts off by one":       func(f *runFacts) { f.sum-- },
		"message total miscount":  func(f *runFacts) { f.messages++ },
		"hybrid rounds unbalance": func(f *runFacts) { f.hybrid, f.exact, f.skipped = true, 6, 5 },
	}
	for name, plant := range faults {
		f := good
		plant(&f)
		if checkRun(f) == nil {
			t.Errorf("%s: not caught", name)
		}
	}
	if checkDoc([]runFacts{good}, true, 2) == nil {
		t.Error("missing replica: not caught")
	}
	if checkDoc(nil, false, 1) == nil {
		t.Error("uncaptured document: not caught")
	}

	body := []byte(`{"id":"x","status":"done","result":{"table":{"Rows":[["1"]]}}}`)
	if err := checkSameBody(body, bytes.Clone(body)); err != nil {
		t.Fatalf("identical bodies: %v", err)
	}
	tampered := bytes.Replace(body, []byte(`"1"`), []byte(`"2"`), 1)
	if checkSameBody(body, tampered) == nil {
		t.Error("tampered hit body: not caught")
	}
	if _, err := checkDone([]byte(`{"id":"x","status":"failed","error":"boom"}`)); err == nil {
		t.Error("failed job: not caught")
	}

	counts := serveCounts{misses: 5, hits: 50, joins: 1}
	m := map[string]float64{
		"consensus_serve_executed_total":   5,
		"consensus_serve_failed_total":     0,
		"consensus_serve_cache_hits_total": 50,
		"consensus_serve_joined_total":     1,
		"consensus_serve_rejected_total":   0,
		"consensus_serve_cancelled_total":  0,
	}
	if errs := checkCounters(m, counts); len(errs) != 0 {
		t.Fatalf("matching counters: %v", errs)
	}
	m["consensus_serve_executed_total"] = 6
	if len(checkCounters(m, counts)) != 1 {
		t.Error("miscounted executions: not caught")
	}
}

// TestClusterMessageLawOnARealRun runs a small lossless cluster document
// and checks that the captured facts pass, and fail once the message
// total is miscounted.
func TestClusterMessageLawOnARealRun(t *testing.T) {
	f := pernodeFamilies[3]
	if f.name != "cluster-zero" {
		t.Fatalf("family 3 is %s, want cluster-zero", f.name)
	}
	c := cell{n: 500, k: 4, replicas: 2}
	body, err := docBody("law-test", f, c)
	if err != nil {
		t.Fatal(err)
	}
	s, err := scenario.DecodeBytes(body)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := runDoc(context.Background(), s, doc{family: f.name, name: "law-test", seed: 5}, nil); err != nil {
		t.Fatal(err)
	}
	facts, ok := takeFacts("law-test")
	if err := checkDoc(facts, ok, c.replicas); err != nil {
		t.Fatal(err)
	}
	if !facts[0].lossless || facts[0].messages == 0 {
		t.Fatalf("cluster-zero run not checked against the message law: %+v", facts[0])
	}
	facts[1].messages -= 2
	if checkDoc(facts, true, c.replicas) == nil {
		t.Error("miscounted message total: not caught")
	}
}

// TestSmokeRuns runs each workload at the smallest size, untraced and
// traced, and requires a correct result that prints every declared metric.
func TestSmokeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			var out, log bytes.Buffer
			code := run([]string{"--workload", name, "--seed", "11", "--seconds", "1", "--trace", trace}, &out, &log)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s", name, trace, code, log.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%s: correct=%v failed=%d attempted=%d\n%s", name, trace, res.Correct, res.Failed, res.Attempted, log.String())
			}
			defs := endToEnd
			if trace == "1" {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Fatalf("%s trace=%s: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if res.Metrics[d.name].Unit != d.unit {
					t.Fatalf("%s trace=%s: metric %s missing or mis-united", name, trace, d.name)
				}
			}
			if trace == "0" {
				for _, d := range endToEnd {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", name, d.name, res.Metrics[d.name].Value)
					}
				}
			} else if u := res.Metrics["trace.unattributed_frac"].Value; u > 0.10 {
				t.Errorf("%s: trace.unattributed_frac = %v, want <= 0.10", name, u)
			}
		}
	}
}

func TestBenchmarkJSONMatchesTheMetricTables(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", w.Name)
		}
	}
	compare := func(kind string, got []def, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || (g.Bound != nil) != bounded || (bounded && *g.Bound != w.bound) {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, g, w)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd, true)
	compare("per_layer", b.PerLayer, perLayer, false)
}

// TestProbeSpeed checks the probe's estimate on planted samples: busy
// CPUs outweigh idle ones, short intervals widen to probeWindow, idle
// intervals fall back to the plain mean, and no samples read as speed 1.
func TestProbeSpeed(t *testing.T) {
	t0 := time.Unix(1000, 0)
	p := &speedProbe{samples: []probeSample{
		{at: t0.Add(10 * time.Millisecond), speed: 0.5, busy: 1},
		{at: t0.Add(20 * time.Millisecond), speed: 1.0, busy: 0},
		{at: t0.Add(30 * time.Millisecond), speed: 0.7, busy: 1},
		{at: t0.Add(2 * time.Second), speed: 2.0, busy: 0},
		{at: t0.Add(2*time.Second + 10*time.Millisecond), speed: 1.0, busy: 0},
	}}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if got := p.speed(t0, t0.Add(time.Second)); !near(got, 0.6) {
		t.Errorf("busy-weighted speed = %v, want 0.6", got)
	}
	if got := p.speed(t0.Add(19*time.Millisecond), t0.Add(21*time.Millisecond)); !near(got, 0.6) {
		t.Errorf("a 2 ms interval reads %v, want 0.6 from its widened window", got)
	}
	if got := p.speed(t0.Add(1900*time.Millisecond), t0.Add(2100*time.Millisecond)); !near(got, 1.5) {
		t.Errorf("idle interval reads %v, want the plain mean 1.5", got)
	}
	if got := p.speed(t0.Add(time.Hour), t0.Add(2*time.Hour)); got != 1 {
		t.Errorf("interval without samples reads %v, want 1", got)
	}
	if got := p.scale(t0, time.Second); (got - 600*time.Millisecond).Abs() > time.Microsecond {
		t.Errorf("scale = %v, want 600ms", got)
	}
}

// TestProbeSamplesEveryCPU runs the probe briefly: every allowed CPU
// contributes samples with a positive speed, and close returns.
func TestProbeSamplesEveryCPU(t *testing.T) {
	p := startProbe()
	time.Sleep(10 * probeEvery)
	p.close()
	if len(p.samples) < len(allowedCPUs()) {
		t.Fatalf("%d samples from %d CPUs", len(p.samples), len(allowedCPUs()))
	}
	for _, s := range p.samples {
		if !(s.speed > 0) || s.busy < 0 || s.busy > 1 {
			t.Fatalf("bad sample %+v", s)
		}
	}
}
