// Command perfbench is crsky's end-to-end benchmark. For one workload it
// builds cmd/crskyd from the checkout, generates the workload's inputs
// from the seed, populates a data directory through crskyd, cold-restarts
// crskyd on it (the set-up time), drives it with closed-loop clients,
// checks every response against answers computed in-process on the same
// inputs, and reconciles client-side counts with the server's own.
//
//	bash perfbench/run.sh --workload query-20k --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the printed metrics are the end-to-end set, measured with
// tracing off. With --trace 1 the run repeats the workload's inputs three
// ways — with ?trace=1 stage spans, with /metrics and /v1/stats deltas,
// and as an in-process replay through the layers' own functions — and the
// printed metrics are the per-layer ledger. The last line of standard
// output is one JSON object {"correct","attempted","failed","metrics"};
// the lines before it carry the run descriptor, the workload's named
// metrics and the failure and gate details.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the gated metrics of every workload, measured untraced.
// p50_ms is the median latency of the workload's primary request kind
// (workload.primary); cpu_ms_per_op is crskyd's CPU time per completed
// request.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"ops_s", "1/s"},
	{"p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
}

// perLayer is the traced run's ledger; README.md maps each entry to the
// end-to-end metric it should move. A layer a workload leaves idle reads 0.
var perLayer = []metricDef{
	{"http.overhead_ms", "ms"},
	{"pool.wait_p50_ms", "ms"},
	{"pool.wait_p90_ms", "ms"},
	{"cache.hit_ratio", "ratio"},
	{"server.cpu_ms_per_op", "ms"},
	{"boot.store_open_ms", "ms"},
	{"boot.load_ms", "ms"},
	{"prsq.join_ms", "ms"},
	{"prsq.exact_ms", "ms"},
	{"prsq.evaluated", "count"},
	{"prsq.bound_decided_ratio", "ratio"},
	{"rtree.node_accesses", "count"},
	{"rtree.ns_per_access", "ns"},
	{"explain.filter_ms", "ms"},
	{"explain.greedy_ms", "ms"},
	{"explain.search_ms", "ms"},
	{"explain.subsets_examined", "count"},
	{"explain.greedy_hit_ratio", "ratio"},
	{"explain.filter_node_accesses", "count"},
	{"quadrature.memo_hit_ratio", "ratio"},
	{"repair.search_ms", "ms"},
	{"explain.verify_ms", "ms"},
	{"query.bbrs_ms", "ms"},
	{"mutate.apply_ms", "ms"},
	{"mutate.alloc_kb", "KB"},
	{"store.wal_append_ms", "ms"},
	{"store.fsync_ms", "ms"},
	{"store.wal_bytes_per_write", "B"},
	{"store.syncs_per_write", "count"},
	{"watch.reeval_ms", "ms"},
	{"watch.deliver_ms", "ms"},
	{"watch.useful_reeval_ratio", "ratio"},
	{"trace.overhead_pct", "%"},
}

// setupRuns is how many cold restarts one run times; setup_s is their
// median.
const setupRuns = 5

// workload is one traffic mix against crskyd.
type workload interface {
	name() string
	// clients is the number of closed-loop request streams.
	clients() int
	// prepare generates the inputs from the seed and the in-process
	// reference state the responses are checked against.
	prepare(seed int64) error
	// register uploads the datasets through crskyd; it is not timed.
	register(d *daemon) error
	// probe sends the first computed request of every kind; the set-up
	// clock stops when it returns.
	probe(d *daemon) error
	// drive runs the closed-loop clients for dur. Traced phases add
	// ?trace=1 and keep the server's stage traces.
	drive(d *daemon, dur time.Duration, traced bool) *phase
	// check verifies every recorded response of p against in-process
	// answers and counts each mismatch as a failed op.
	check(p *phase)
	// gates reconciles p's client-side counts with the server-side deltas
	// between two scrapes and returns every violation.
	gates(p *phase, before, after scrape) []string
	// primary is the request kind whose median is p50_ms.
	primary() string
	// traced is the request kind whose ?trace=1 overhead the ledger reports.
	traced() string
	// layers fills the workload's per-layer metrics of a traced phase.
	layers(l *ledger, p *phase, before, after scrape)
	// replay repeats the inputs in-process through the layers' functions,
	// recording benchmark spans, after crskyd has stopped.
	replay(l *ledger, dataDir string) error
}

var workloads = map[string]func() workload{
	"query-20k":   func() workload { return &queryWorkload{} },
	"explain-20k": func() workload { return &explainWorkload{} },
	"write-watch": func() workload { return &writeWatchWorkload{} },
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: query-20k, explain-20k or write-watch")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "timed-phase length in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run printing the per-layer ledger")
		root    = flag.String("root", "..", "root of the crsky checkout to build")
	)
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload query-20k|explain-20k|write-watch --seed N --seconds S --trace 0|1\n")
		return 2
	}
	w := mk()
	if err := benchmark(w, *root, filepath.Join(*root, ".bench_build"), *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name(), err)
		return 1
	}
	return 0
}

// result is the contract line printed last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func benchmark(w workload, root, out string, seed int64, seconds int, traced bool) error {
	runDir := filepath.Join(out, w.name())
	if err := os.RemoveAll(runDir); err != nil {
		return err
	}
	dataDir := filepath.Join(runDir, "data")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return err
	}
	logPath := filepath.Join(runDir, "crskyd.log")
	// stage logs how long each untimed step took, so a slow run shows where.
	last := time.Now()
	stage := func(name string) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s %.1fs\n", w.name(), name, time.Since(last).Seconds())
		last = time.Now()
	}
	bin, err := buildCrskyd(root, out)
	if err != nil {
		return err
	}
	stage("build")
	desc := newDescriptor(w, seed, seconds, traced)
	if err := w.prepare(seed); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	stage("prepare")

	// Populate the data directory through the same binary, untimed.
	d, err := startDaemon(bin, dataDir, logPath)
	if err != nil {
		return err
	}
	err = w.register(d)
	d.stop()
	if err != nil {
		return fmt.Errorf("register: %w", err)
	}
	stage("populate")

	// setup_s: cold restarts on the populated directory, each timed from
	// spawn to the first computed answer of every request kind.
	var setups, rawSetups []float64
	for i := 0; i < setupRuns; i++ {
		h0, err := readCPUTimes()
		if err != nil {
			return err
		}
		if d, err = startDaemon(bin, dataDir, logPath); err != nil {
			return err
		}
		if err := w.probe(d); err != nil {
			d.stop()
			return fmt.Errorf("set-up probe: %w", err)
		}
		took := time.Since(d.started).Seconds()
		h1, err := readCPUTimes()
		if err != nil {
			return err
		}
		rawSetups = append(rawSetups, took)
		setups = append(setups, took*unstolen(h0, h1))
		if i < setupRuns-1 {
			d.stop()
		}
	}
	defer func() { d.stop() }()
	stage("set-up")

	dur := time.Duration(seconds) * time.Second
	res := result{Metrics: map[string]metricValue{}}
	var report = map[string]any{"descriptor": &desc, "setupRunsS": rawSetups}
	var gateErrs []string

	if !traced {
		cal := newCalibrator()
		cal.sample(5)
		before, err := d.scrape()
		if err != nil {
			return err
		}
		p := w.drive(d, dur, false)
		after, err := d.scrape()
		if err != nil {
			return err
		}
		heap, err := d.heapMB()
		if err != nil {
			return err
		}
		cal.sample(5)
		stage("timed phase")
		desc.StealPct = stealPct(before.host, after.host)
		w.check(p)
		stage("check")
		gateErrs = w.gates(p, before, after)
		res.Attempted, res.Failed = p.attempted, p.failed
		raw := map[string]float64{
			"setup_s":       quantile(rawSetups, 0.5),
			"heap_mb":       heap,
			"ops_s":         wholeCycleRate(p.cycles),
			"p50_ms":        quantile(p.lat[w.primary()], 0.5),
			"cpu_ms_per_op": cpuPerOp(before, after, p),
		}
		// The gated metrics are rescaled to the reference CPU speed (f), and
		// the wall-clock ones count only the time the host did not steal
		// from this VM (u); see README.md. The report keeps the raw values.
		u := unstolen(before.host, after.host)
		f := cal.factor()
		vals := map[string]float64{
			"setup_s":       quantile(setups, 0.5) * f,
			"heap_mb":       raw["heap_mb"],
			"ops_s":         raw["ops_s"] / u / f,
			"p50_ms":        raw["p50_ms"] * u * f,
			"cpu_ms_per_op": raw["cpu_ms_per_op"] * f,
		}
		report["calibrationMs"] = cal.ms
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
		}
		report["named"] = namedMetrics(p, raw)
		report["failures"] = p.errs
	} else {
		l := newLedger()
		s0, err := d.scrape()
		if err != nil {
			return err
		}
		pa := w.drive(d, dur/2, false)
		s1, err := d.scrape()
		if err != nil {
			return err
		}
		pb := w.drive(d, dur/2, true)
		s2, err := d.scrape()
		if err != nil {
			return err
		}
		stage("timed phases")
		desc.StealPct = stealPct(s0.host, s2.host)
		w.check(pa)
		w.check(pb)
		stage("check")
		gateErrs = append(w.gates(pa, s0, s1), w.gates(pb, s1, s2)...)
		res.Attempted = pa.attempted + pb.attempted
		res.Failed = pa.failed + pb.failed

		untraced := quantile(pa.lat[w.traced()], 0.5) * unstolen(s0.host, s1.host)
		tracedP50 := quantile(pb.lat[w.traced()], 0.5) * unstolen(s1.host, s2.host)
		if untraced > 0 {
			l.set("trace.overhead_pct", 100*(tracedP50-untraced)/untraced)
		}
		l.set("server.cpu_ms_per_op", cpuPerOp(s0, s1, pa))
		l.addHTTPSpans(pb)
		serverLayers(l, pb, s1, s2, w.traced())
		w.layers(l, pb, s1, s2)
		d.stop()
		if err := replayBoot(l, dataDir); err != nil {
			return fmt.Errorf("replay boot: %w", err)
		}
		if err := w.replay(l, dataDir); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		stage("replay")
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{Value: l.metrics[m.name], Unit: m.unit}
		}
		spansPath := filepath.Join(runDir, fmt.Sprintf("spans-seed%d.json", seed))
		if err := l.writeSpans(spansPath); err != nil {
			return err
		}
		report["selfTimeMs"] = l.selfTimeSummary()
		report["unavailable"] = l.idle(perLayer, w.name())
		report["spans"] = spansPath
		report["failures"] = append(pa.errs, pb.errs...)
	}
	report["gateViolations"] = gateErrs
	report["ops_attempted"] = res.Attempted
	report["ops_failed"] = res.Failed
	res.Correct = res.Failed == 0 && len(gateErrs) == 0 && res.Attempted > 0

	rb, err := json.Marshal(report)
	if err != nil {
		return err
	}
	fmt.Printf("perfbench report %s\n", rb)
	for _, g := range gateErrs {
		fmt.Printf("perfbench gate violation: %s\n", g)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// cpuPerOp is crskyd's user+system CPU time per completed request of p,
// in ms, between two scrapes.
func cpuPerOp(before, after scrape, p *phase) float64 {
	if n := p.attempted - p.failed; n > 0 {
		return 1000 * (after.cpuS - before.cpuS) / float64(n)
	}
	return 0
}

// namedMetric is one workload-specific latency in the report, with the
// sample count it rests on.
type namedMetric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// namedMetrics renders every latency kind of a phase as <kind>_p50_ms plus
// the highest tail percentile with at least ten samples beyond it, next to
// the end-to-end values under their workload-independent names.
func namedMetrics(p *phase, vals map[string]float64) map[string]namedMetric {
	out := map[string]namedMetric{}
	for _, m := range endToEnd {
		if m.name != "p50_ms" {
			out[m.name] = namedMetric{Value: vals[m.name], Unit: m.unit}
		}
	}
	kinds := make([]string, 0, len(p.lat))
	for k := range p.lat {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		xs := p.lat[k]
		out[k+"_p50_ms"] = namedMetric{Value: quantile(xs, 0.5), Unit: "ms", Samples: len(xs)}
		if q, ok := tailQuantile(len(xs)); ok {
			name := fmt.Sprintf("%s_p%s_ms", k, percentileLabel(q))
			out[name] = namedMetric{Value: quantile(xs, q), Unit: "ms", Samples: len(xs)}
		}
	}
	return out
}

// percentileLabel renders 0.9 as "90" and 0.999 as "99.9".
func percentileLabel(q float64) string {
	return fmt.Sprintf("%g", math.Round(q*1000)/10)
}
