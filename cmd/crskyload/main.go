// Command crskyload is the serving-path load harness: it drives mixed
// query / explain / batch-query traffic against a crskyd server at a
// configurable concurrency and reports client-observed latency percentiles
// and throughput per (mix, dataset-model) cell, plus the server-side
// saturation counters it scraped afterwards.
//
//	crskyload [-target http://host:8372] [-c 8] [-n 240] [-size 2000]
//	          [-writes 0.1] [-benchfile BENCH_serve.json] [-against BENCH_serve.json]
//
// Two cells exercise the dynamic data plane. "mutate" interleaves object
// inserts+deletes (an insert immediately undone, so the dataset converges
// back to its registered size) with queries at the -writes ratio against
// the certain dataset. "watch" drives the same write-ratio interleave
// against the sample dataset while holding /v2/watch subscriptions open on
// its tractable non-answers, so every committed mutation also pays the
// subscription re-evaluation path; the events pushed during the cell ride
// along in the report.
//
// With no -target it starts an in-process server (the same code path as
// crskyd) on a loopback listener, so the measurement includes the full
// HTTP stack but no network. The workloads are seeded and deterministic:
// two datasets (certain and sample models), 32 rotating query points each
// — a realistic mix of cache hits and computed requests — and the
// tractable non-answers selected by the experiments package for explain.
//
// The harness is a well-behaved overload client: a 503 is not an error but
// a shed — it honors the server's Retry-After as the backoff base and
// retries with capped jittered exponential backoff. A final "overload"
// cell deliberately saturates the pool (concurrency far past the worker
// count, cache bypassed, "approx": "auto", a per-request deadline) to
// measure the degradation story: shed rate, approximate-answer rate, and
// retries per cell ride along in the report.
//
// -benchfile writes the report as JSON (the committed BENCH_serve.json).
// -against re-checks a fresh run against a committed baseline with
// hardware-neutral gates only: zero hard failures (transport errors,
// unexpected statuses, 503s without a Retry-After), zero panics, the same
// mix cells, sane percentiles, and a histogram record-path overhead under
// 1% of the median request — the observability acceptance bound.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/experiments"
	"github.com/crsky/crsky/internal/faultinject"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/obs"
	"github.com/crsky/crsky/internal/server"
)

// MixResult is one (mix, model) cell of the serving benchmark.
type MixResult struct {
	Mix       string `json:"mix"`   // query | explain | batch | mutate | watch | overload
	Model     string `json:"model"` // certain | sample
	Requests  int    `json:"requests"`
	Errors    int    `json:"errors"` // hard failures only; 503s are sheds, not errors
	CacheHits int    `json:"cacheHits"`

	// Mutations counts the insert+delete round-trips the cell interleaved
	// (mutate and watch mixes only); WatchEvents counts the NDJSON lines
	// the held /v2/watch subscriptions pushed during the cell (watch mix).
	Mutations   int `json:"mutations,omitempty"`
	WatchEvents int `json:"watchEvents,omitempty"`

	// The degradation story: how many 503 sheds the cell absorbed, how
	// many answers came back from the approximate Monte Carlo tier, and
	// how many Retry-After-honoring retries that cost.
	Shed503       int     `json:"shed503"`
	ApproxAnswers int     `json:"approxAnswers"`
	Retries       int     `json:"retries"`
	ShedRate      float64 `json:"shedRate"`   // Shed503 / Requests
	ApproxRate    float64 `json:"approxRate"` // ApproxAnswers / Requests

	P50Ms         float64 `json:"p50Ms"`
	P90Ms         float64 `json:"p90Ms"`
	P99Ms         float64 `json:"p99Ms"`
	MeanMs        float64 `json:"meanMs"`
	ThroughputRps float64 `json:"throughputRps"`

	// HistogramOverheadPct is the measured cost of one histogram Observe
	// relative to this cell's median request — the instrumentation budget
	// check (must stay far under 1).
	HistogramOverheadPct float64 `json:"histogramOverheadPct"`
}

// ServerSide is the post-run scrape of /v1/stats: the saturation story the
// new observability surfaces.
type ServerSide struct {
	CacheHitRate      float64 `json:"cacheHitRate"`
	PoolPeakInFlight  int64   `json:"poolPeakInFlight"`
	PoolPeakQueue     int64   `json:"poolPeakQueueDepth"`
	PoolWaitP99Ms     float64 `json:"poolWaitP99Ms"`
	ComputedExplains  int64   `json:"computedExplanations"`
	RequestErrors     int64   `json:"requestErrors"`
	DatasetNodeIOSeen int64   `json:"datasetNodeAccesses"`
	ShedTotal         int64   `json:"shedTotal"`     // admission sheds across all classes
	ApproxAnswers     int64   `json:"approxAnswers"` // degraded-tier answers served
	Panics            int64   `json:"panics"`        // recovered handler panics (must be 0)
}

// Report is the BENCH_serve.json schema.
type Report struct {
	Experiment          string      `json:"experiment"`
	Seed                int64       `json:"seed"`
	Concurrency         int         `json:"concurrency"`
	RequestsPerMix      int         `json:"requestsPerMix"`
	DatasetSize         int         `json:"datasetSize"`
	WriteRatio          float64     `json:"writeRatio"`
	Watchers            int         `json:"watchers"`
	OverloadConcurrency int         `json:"overloadConcurrency"`
	HistogramObserveNs  float64     `json:"histogramObserveNs"`
	Results             []MixResult `json:"results"`
	Server              ServerSide  `json:"server"`
}

func main() {
	var (
		target    = flag.String("target", "", "server base URL (empty = in-process server)")
		conc      = flag.Int("c", 8, "concurrent client workers per mix")
		nPerMix   = flag.Int("n", 240, "requests per (mix, model) cell")
		size      = flag.Int("size", 2000, "objects per generated dataset")
		writes    = flag.Float64("writes", 0.1, "write fraction of the mutate/watch mixes (0 disables writes)")
		seed      = flag.Int64("seed", 1, "workload seed")
		workers   = flag.Int("workers", 0, "in-process server pool size (0 = GOMAXPROCS)")
		benchfile = flag.String("benchfile", "", "write the JSON report here")
		against   = flag.String("against", "", "committed baseline to check this run against")
	)
	flag.Parse()
	if *writes < 0 || *writes > 1 {
		log.Fatalf("crskyload: -writes %v outside [0, 1]", *writes)
	}
	if *writes > 0 {
		if writeEvery = int(math.Round(1 / *writes)); writeEvery < 1 {
			writeEvery = 1
		}
	}

	base := *target
	overloadBase := ""
	if base == "" {
		srv := server.New(server.Config{Workers: *workers, CacheSize: 1024})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		base = ts.URL
		// A second, deliberately tiny server for the overload cell: one
		// worker, a two-deep admission queue, one approx slot, no cache,
		// and a deterministic injected slot delay standing in for queries
		// heavy enough to saturate a worker (sub-10ms computations never
		// queue on a single-core host — the scheduler serializes arrivals
		// with the work itself). Its degradation behavior then follows
		// from this configuration, not from how many cores the
		// benchmarking host happens to have.
		faults := faultinject.New(faultinject.Config{
			Seed: *seed, SlotDelayP: 1, SlotDelayMax: overloadSlotDelay,
		})
		osrv := server.New(server.Config{
			Workers: 1, MaxQueue: 2, ApproxWorkers: 1, CacheSize: -1, Faults: faults,
		})
		ots := httptest.NewServer(osrv.Handler())
		defer ots.Close()
		overloadBase = ots.URL
	}
	client := &http.Client{Timeout: 2 * time.Minute}
	lg := &loadgen{base: base, client: client}
	olg := lg // overload cell target: the tiny server when in-process
	if overloadBase != "" {
		olg = &loadgen{base: overloadBase, client: client}
	}

	certain, sample, err := buildWorkloads(*seed, *size)
	if err != nil {
		log.Fatalf("crskyload: workloads: %v", err)
	}
	for _, wl := range []*workload{certain, sample} {
		if err := lg.upload(wl); err != nil {
			log.Fatalf("crskyload: upload %s: %v", wl.name, err)
		}
	}
	if olg != lg {
		if err := olg.upload(sample); err != nil {
			log.Fatalf("crskyload: upload %s (overload server): %v", sample.name, err)
		}
	}

	observeNs := measureObserve()
	poolWorkers, err := olg.poolWorkers()
	if err != nil {
		log.Fatalf("crskyload: pool size scrape: %v", err)
	}
	// The overload cell needs more outstanding requests than the admission
	// queue budget of the server it hits, or nothing ever sheds.
	overloadConc := 16 * poolWorkers
	rep := &Report{
		Experiment:          "serve",
		Seed:                *seed,
		Concurrency:         *conc,
		RequestsPerMix:      *nPerMix,
		DatasetSize:         *size,
		WriteRatio:          *writes,
		Watchers:            watchCount,
		OverloadConcurrency: overloadConc,
		HistogramObserveNs:  observeNs,
	}
	type cell struct {
		mix  string
		wl   *workload
		n    int
		conc int
		lg   *loadgen
	}
	cells := []cell{}
	for _, wl := range []*workload{certain, sample} {
		for _, mix := range []string{"query", "explain", "batch"} {
			cells = append(cells, cell{mix, wl, *nPerMix, *conc, lg})
		}
	}
	// The dynamic-plane cells run after the read-only cells so their
	// generation bumps do not retire those cells' cache entries mid-run.
	cells = append(cells,
		cell{"mutate", certain, *nPerMix, *conc, lg},
		cell{"watch", sample, *nPerMix, *conc, lg},
	)
	// The degradation cell: saturate the tiny server with cache-bypassing
	// "auto" queries under a deadline, 512 distinct points so the cache
	// cannot absorb the load.
	cells = append(cells, cell{"overload", sample, 2 * *nPerMix, overloadConc, olg})
	for _, c := range cells {
		var ws *watchSet
		if c.mix == "watch" {
			var err error
			if ws, err = c.lg.openWatchers(c.wl, watchCount); err != nil {
				log.Fatalf("crskyload: watch subscriptions: %v", err)
			}
		}
		res := c.lg.runMix(c.mix, c.wl, c.n, c.conc, *seed)
		if c.mix == "mutate" || c.mix == "watch" {
			res.Mutations = mutationCount(c.n)
		}
		if ws != nil {
			res.WatchEvents = ws.close()
		}
		res.HistogramOverheadPct = overheadPct(observeNs, res.P50Ms)
		rep.Results = append(rep.Results, res)
		log.Printf("crskyload: %-8s %-7s  p50=%.2fms p90=%.2fms p99=%.2fms  %.0f req/s  errors=%d cacheHits=%d shed=%d approx=%d retries=%d",
			res.Mix, res.Model, res.P50Ms, res.P90Ms, res.P99Ms, res.ThroughputRps,
			res.Errors, res.CacheHits, res.Shed503, res.ApproxAnswers, res.Retries)
	}
	if err := lg.scrapeStats(&rep.Server); err != nil {
		log.Fatalf("crskyload: stats scrape: %v", err)
	}
	if olg != lg {
		// Fold the overload server's degradation counters into the report
		// so the gates (panics, error accounting) cover both servers.
		var od ServerSide
		if err := olg.scrapeStats(&od); err != nil {
			log.Fatalf("crskyload: overload stats scrape: %v", err)
		}
		rep.Server.RequestErrors += od.RequestErrors
		rep.Server.ShedTotal += od.ShedTotal
		rep.Server.ApproxAnswers += od.ApproxAnswers
		rep.Server.Panics += od.Panics
	}

	if *benchfile != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*benchfile, append(raw, '\n'), 0o644); err != nil {
			log.Fatalf("crskyload: write %s: %v", *benchfile, err)
		}
		log.Printf("crskyload: wrote %s", *benchfile)
	}
	if *against != "" {
		if err := check(rep, *against); err != nil {
			log.Fatalf("crskyload: regression check vs %s: %v", *against, err)
		}
		log.Printf("crskyload: regression check vs %s passed", *against)
	}
}

// --- workloads --------------------------------------------------------

const (
	queryRotation     = 32 // distinct query points per dataset
	batchSize         = 16 // points per /v2/query request
	maxCandidates     = 60
	sampleAlpha       = 0.5
	overloadPoints    = 512                   // distinct points for the overload cell
	overloadBudget    = "1s"                  // per-request deadline in the overload cell
	overloadSlotDelay = 40 * time.Millisecond // injected per-slot stall on the overload server
	maxRetries        = 5                     // Retry-After-honoring attempts after the first
	maxBackoff        = 2 * time.Second       // cap so a long advisory cannot stall the run
	watchCount        = 8                     // /v2/watch streams held open during the watch cell
)

// writeEvery is the deterministic write schedule of the mutate/watch mixes:
// request i is an insert+delete round-trip when i%writeEvery == 0 (0
// disables writes). Derived from -writes in main.
var writeEvery int

// mutationCount is how many of a cell's n requests the schedule turns into
// writes — deterministic, so the report needs no extra plumbing.
func mutationCount(n int) int {
	if writeEvery <= 0 {
		return 0
	}
	return (n + writeEvery - 1) / writeEvery
}

type workload struct {
	name       string
	model      string
	register   *server.DatasetRequest
	baseQ      geom.Point   // unperturbed base query — nonAnswers hold exactly here
	queries    []geom.Point // rotating query points
	overload   []geom.Point // wider, cache-defeating rotation for the overload cell
	nonAnswers []int        // tractable explain targets
	alpha      float64
}

// buildWorkloads generates the two seeded datasets: an independent certain
// set and a cluster-region uncertain (sample-model) set, each with a
// rotation of perturbed query points around a data-adjacent base query.
func buildWorkloads(seed int64, size int) (*workload, *workload, error) {
	cfg := experiments.Config{Seed: seed, Runs: 12, Out: io.Discard}

	ix, cq, cids, err := experiments.BenchWorkloadCR(cfg, dataset.Independent, size, 2, maxCandidates)
	if err != nil {
		return nil, nil, fmt.Errorf("certain: %w", err)
	}
	pts := ix.Points()
	raw := make([][]float64, len(pts))
	for i, p := range pts {
		raw[i] = p
	}
	certain := &workload{
		name:  "load-certain",
		model: server.ModelCertain,
		register: &server.DatasetRequest{
			Name: "load-certain", Model: server.ModelCertain, Points: raw,
		},
		baseQ:      cq,
		queries:    rotateQueries(seed+10, cq),
		nonAnswers: cids,
		alpha:      1,
	}

	ds, sq, sids, err := experiments.BenchWorkloadCP(cfg, "lUrU", size, 2, 1, 5, sampleAlpha, maxCandidates)
	if err != nil {
		return nil, nil, fmt.Errorf("sample: %w", err)
	}
	specs := make([]server.ObjectSpec, ds.Len())
	for i, o := range ds.Objects {
		ss := make([]server.SampleSpec, len(o.Samples))
		for j, s := range o.Samples {
			ss[j] = server.SampleSpec{P: s.P, Loc: s.Loc}
		}
		specs[i] = server.ObjectSpec{Samples: ss}
	}
	sample := &workload{
		name:  "load-sample",
		model: server.ModelSample,
		register: &server.DatasetRequest{
			Name: "load-sample", Model: server.ModelSample, Objects: specs,
		},
		baseQ:      sq,
		queries:    rotateQueries(seed+20, sq),
		overload:   perturbQueries(seed+30, sq, overloadPoints, 0.10),
		nonAnswers: sids,
		alpha:      sampleAlpha,
	}
	return certain, sample, nil
}

// rotateQueries perturbs the base query into queryRotation distinct
// points (±2% per coordinate), deterministic in the seed. Repeats of the
// same point across the run exercise the result cache the way production
// traffic with hot queries would.
func rotateQueries(seed int64, q geom.Point) []geom.Point {
	return perturbQueries(seed, q, queryRotation, 0.02)
}

// perturbQueries derives n distinct query points around q, each coordinate
// scaled by a uniform factor in [1-spread, 1+spread], deterministic in the
// seed.
func perturbQueries(seed int64, q geom.Point, n int, spread float64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geom.Point, n)
	for i := range out {
		p := make(geom.Point, len(q))
		for d, v := range q {
			p[d] = v * (1 + spread*(rng.Float64()*2-1))
		}
		out[i] = p
	}
	return out
}

// --- load generation --------------------------------------------------

type loadgen struct {
	base   string
	client *http.Client
}

func (lg *loadgen) post(path string, body any) (*http.Response, []byte, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, nil, err
	}
	resp, err := lg.client.Post(lg.base+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		return nil, nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, nil, err
	}
	return resp, out, nil
}

func (lg *loadgen) upload(wl *workload) error {
	resp, out, err := lg.post("/v1/datasets", wl.register)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("status %d: %s", resp.StatusCode, out)
	}
	return nil
}

// issue fires the i-th raw request of a mix, once, no retries.
func (lg *loadgen) issue(mix string, wl *workload, i int) (*http.Response, []byte, error) {
	switch mix {
	case "query":
		q := wl.queries[i%len(wl.queries)]
		return lg.post("/v1/query", &server.QueryRequest{
			Dataset: wl.name, Q: q, Alpha: wl.alpha,
		})
	case "explain":
		an := wl.nonAnswers[i%len(wl.nonAnswers)]
		return lg.post("/v1/explain", &server.ExplainRequest{
			Dataset: wl.name, Q: wl.queries[0], An: an, Alpha: wl.alpha,
			Options: server.OptionsSpec{MaxCandidates: maxCandidates},
		})
	case "batch":
		qs := make([][]float64, batchSize)
		for j := range qs {
			qs[j] = wl.queries[(i+j)%len(wl.queries)]
		}
		return lg.post("/v2/query", &server.BatchQueryRequest{
			Dataset: wl.name, Qs: qs, Alpha: wl.alpha,
		})
	case "mutate", "watch":
		// The dynamic-plane interleave: a deterministic fraction of the
		// requests are insert+delete round-trips, the rest plain queries
		// whose cache entries the writes keep retiring.
		if writeEvery > 0 && i%writeEvery == 0 {
			return lg.mutateOnce(wl, i)
		}
		q := wl.queries[i%len(wl.queries)]
		return lg.post("/v1/query", &server.QueryRequest{
			Dataset: wl.name, Q: q, Alpha: wl.alpha,
		})
	case "overload":
		// Cache-bypassing deadline-bounded queries that may legally come
		// back from the approximate tier ("approx": "auto").
		q := wl.overload[i%len(wl.overload)]
		return lg.post("/v1/query?timeout="+overloadBudget, &server.QueryRequest{
			Dataset: wl.name, Q: q, Alpha: wl.alpha, NoCache: true, Approx: "auto",
		})
	default:
		panic("unknown mix " + mix)
	}
}

// mutateOnce is one write "request" of the mutate/watch mixes: insert a
// clone of a registered object, then delete the ID the server assigned.
// The dataset converges back to its registered size while the server pays
// two WAL commits, two copy-on-write generations, and — with watch
// subscriptions held — two re-evaluation rounds. The reported latency
// covers the whole round-trip.
func (lg *loadgen) mutateOnce(wl *workload, i int) (*http.Response, []byte, error) {
	var ins server.ObjectInsertRequest
	switch wl.model {
	case server.ModelCertain:
		pts := wl.register.Points
		ins.Point = pts[i%len(pts)]
	case server.ModelSample:
		objs := wl.register.Objects
		ins.Samples = objs[i%len(objs)].Samples
	}
	resp, body, err := lg.post("/v2/datasets/"+wl.name+"/objects", &ins)
	if err != nil || resp.StatusCode != http.StatusOK {
		return resp, body, err
	}
	var mr server.MutationResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		return nil, nil, err
	}
	req, err := http.NewRequest(http.MethodDelete,
		fmt.Sprintf("%s/v2/datasets/%s/objects/%d", lg.base, wl.name, mr.ID), nil)
	if err != nil {
		return nil, nil, err
	}
	dresp, err := lg.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	out, err := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if err != nil {
		return nil, nil, err
	}
	return dresp, out, nil
}

// watchSet is the watch cell's held subscriptions: one NDJSON stream per
// tractable non-answer, each with a counter of the lines the server pushed
// (the registered ack included).
type watchSet struct {
	bodies []io.Closer
	counts []int64
	wg     sync.WaitGroup
}

// openWatchers subscribes n /v2/watch streams on the workload's explain
// targets — non-answers at the unperturbed base query by construction.
// Streams outlive the shared client's request timeout, so they get a
// timeout-less client of their own.
func (lg *loadgen) openWatchers(wl *workload, n int) (*watchSet, error) {
	cl := &http.Client{}
	ws := &watchSet{counts: make([]int64, n)}
	for k := 0; k < n; k++ {
		an := wl.nonAnswers[k%len(wl.nonAnswers)]
		raw, err := json.Marshal(&server.WatchRequest{
			Dataset: wl.name, Q: wl.baseQ, An: an, Alpha: wl.alpha,
		})
		if err != nil {
			ws.close()
			return nil, err
		}
		resp, err := cl.Post(lg.base+"/v2/watch", "application/json", bytes.NewReader(raw))
		if err != nil {
			ws.close()
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			ws.close()
			return nil, fmt.Errorf("watch an=%d: status %d: %s", an, resp.StatusCode, b)
		}
		ws.bodies = append(ws.bodies, resp.Body)
		ws.wg.Add(1)
		go func(k int, r io.Reader) {
			defer ws.wg.Done()
			sc := bufio.NewScanner(r)
			for sc.Scan() {
				if len(bytes.TrimSpace(sc.Bytes())) > 0 {
					ws.counts[k]++
				}
			}
		}(k, resp.Body)
	}
	return ws, nil
}

// close tears the streams down and returns the total pushed line count.
func (ws *watchSet) close() int {
	for _, b := range ws.bodies {
		b.Close()
	}
	ws.wg.Wait()
	var total int64
	for _, c := range ws.counts {
		total += c
	}
	return int(total)
}

// reqOutcome is what one logical request (including its retries) produced.
type reqOutcome struct {
	ok, cached, approx bool
	shed503, retries   int
	hardFail           bool
}

// request issues the i-th request of a mix like a well-behaved overload
// client: a 503 with a Retry-After is a shed, retried with jittered
// exponential backoff seeded by the server's own advisory; anything else
// unexpected — transport error, odd status, a 503 WITHOUT a Retry-After —
// is a hard failure, the thing the regression gate keeps at zero.
func (lg *loadgen) request(mix string, wl *workload, i int, rng *rand.Rand) (out reqOutcome) {
	for attempt := 0; ; attempt++ {
		resp, body, err := lg.issue(mix, wl, i)
		if err != nil {
			out.hardFail = true
			return
		}
		switch resp.StatusCode {
		case http.StatusOK:
			out.ok = true
			out.cached = resp.Header.Get("X-Crsky-Cache") == "hit"
			if mix == "query" || mix == "overload" {
				var qr server.QueryResponse
				if json.Unmarshal(body, &qr) == nil && qr.Approx {
					out.approx = true
				}
			}
			return
		case http.StatusServiceUnavailable:
			out.shed503++
			secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
			if err != nil || secs < 1 || attempt == maxRetries {
				out.hardFail = true
				return
			}
			out.retries++
			sleepBackoff(rng, secs, attempt)
		default:
			out.hardFail = true
			return
		}
	}
}

// sleepBackoff sleeps the server's Retry-After advisory, doubled per
// attempt, capped at maxBackoff, with jitter in [d/2, d) so a shed herd
// does not retry in lockstep.
func sleepBackoff(rng *rand.Rand, retryAfterSecs, attempt int) {
	d := time.Duration(retryAfterSecs) * time.Second << uint(attempt)
	if d > maxBackoff || d <= 0 { // <=0 guards shift overflow
		d = maxBackoff
	}
	half := d.Nanoseconds() / 2
	time.Sleep(time.Duration(half + rng.Int63n(half+1)))
}

// runMix fires n requests of one mix at the given concurrency and
// aggregates exact client-side latencies (retry backoff included — the
// latency a real degraded client experiences).
func (lg *loadgen) runMix(mix string, wl *workload, n, conc int, seed int64) MixResult {
	lats := make([]float64, n) // ms; index = request number
	var errs, hits, shed, approx, retries int64
	var mu sync.Mutex
	jobs := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)*7919)) // backoff jitter
			for i := range jobs {
				t0 := time.Now()
				out := lg.request(mix, wl, i, rng)
				d := time.Since(t0)
				mu.Lock()
				lats[i] = float64(d.Nanoseconds()) / 1e6
				if out.hardFail {
					errs++
				}
				if out.cached {
					hits++
				}
				if out.approx {
					approx++
				}
				shed += int64(out.shed503)
				retries += int64(out.retries)
				mu.Unlock()
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	wall := time.Since(start).Seconds()

	sorted := append([]float64(nil), lats...)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	pct := func(p float64) float64 {
		if len(sorted) == 0 {
			return 0
		}
		idx := int(p * float64(len(sorted)-1))
		return sorted[idx]
	}
	rate := func(v int64) float64 { return float64(v) / float64(n) }
	return MixResult{
		Mix:           mix,
		Model:         wl.model,
		Requests:      n,
		Errors:        int(errs),
		CacheHits:     int(hits),
		Shed503:       int(shed),
		ApproxAnswers: int(approx),
		Retries:       int(retries),
		ShedRate:      rate(shed),
		ApproxRate:    rate(approx),
		P50Ms:         pct(0.50),
		P90Ms:         pct(0.90),
		P99Ms:         pct(0.99),
		MeanMs:        sum / float64(len(sorted)),
		ThroughputRps: float64(n) / wall,
	}
}

func (lg *loadgen) stats() (*server.StatsResponse, error) {
	resp, err := lg.client.Get(lg.base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// poolWorkers reports the target's exact-pool size, so the overload cell
// can size its concurrency relative to the server it actually hits.
func (lg *loadgen) poolWorkers() (int, error) {
	st, err := lg.stats()
	if err != nil {
		return 0, err
	}
	if st.Pool.Workers < 1 {
		return 0, fmt.Errorf("target reports pool of %d workers", st.Pool.Workers)
	}
	return st.Pool.Workers, nil
}

func (lg *loadgen) scrapeStats(out *ServerSide) error {
	st, err := lg.stats()
	if err != nil {
		return err
	}
	out.CacheHitRate = st.Cache.HitRate
	out.PoolPeakInFlight = st.Pool.PeakInFlight
	out.PoolPeakQueue = st.Pool.PeakQueueDepth
	out.PoolWaitP99Ms = st.Pool.WaitP99Ms
	out.ComputedExplains = st.Explain.ComputedExplanations
	out.RequestErrors = st.Requests.Errors
	out.ShedTotal = st.Admission.ShedBatch + st.Admission.ShedExplain + st.Admission.ShedQuery
	out.ApproxAnswers = st.Requests.Approx
	out.Panics = st.Requests.Panics
	for _, ds := range st.Datasets {
		out.DatasetNodeIOSeen += ds.NodeAccesses
	}
	return nil
}

// --- instrumentation budget -------------------------------------------

// measureObserve times the histogram record path (three atomic adds) the
// way the middleware hits it.
func measureObserve() float64 {
	h := &obs.Histogram{}
	const iters = 1_000_000
	start := time.Now()
	for i := 0; i < iters; i++ {
		h.Observe(time.Duration(i%1000) * time.Microsecond)
	}
	return float64(time.Since(start).Nanoseconds()) / iters
}

func overheadPct(observeNs, p50Ms float64) float64 {
	if p50Ms <= 0 {
		return 0
	}
	return observeNs / (p50Ms * 1e6) * 100
}

// --- regression guard -------------------------------------------------

// check applies the hardware-neutral gates: the fresh run must have zero
// hard failures and zero panics, cover exactly the committed mix cells,
// keep ordered positive percentiles, and keep the histogram record path
// under 1% of every cell's median request. Shed and approximate answers
// are not failures — they are the overload contract working — but every
// server-side error response must be accounted for by a shed the client
// actually saw.
func check(fresh *Report, baselinePath string) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse baseline: %w", err)
	}
	cells := func(r *Report) map[string]bool {
		m := map[string]bool{}
		for _, res := range r.Results {
			m[res.Mix+"/"+res.Model] = true
		}
		return m
	}
	freshCells, baseCells := cells(fresh), cells(&base)
	for cell := range baseCells {
		if !freshCells[cell] {
			return fmt.Errorf("cell %s in baseline but missing from this run", cell)
		}
	}
	for cell := range freshCells {
		if !baseCells[cell] {
			return fmt.Errorf("cell %s measured but absent from baseline (refresh BENCH_serve.json)", cell)
		}
	}
	var clientShed int64
	for _, res := range fresh.Results {
		cell := res.Mix + "/" + res.Model
		clientShed += int64(res.Shed503)
		if res.Errors != 0 {
			return fmt.Errorf("cell %s: %d hard failures", cell, res.Errors)
		}
		if res.Requests == 0 {
			return fmt.Errorf("cell %s: no requests", cell)
		}
		if !(res.P50Ms > 0) || res.P90Ms < res.P50Ms || res.P99Ms < res.P90Ms {
			return fmt.Errorf("cell %s: broken percentiles p50=%v p90=%v p99=%v",
				cell, res.P50Ms, res.P90Ms, res.P99Ms)
		}
		if !(res.ThroughputRps > 0) {
			return fmt.Errorf("cell %s: throughput %v", cell, res.ThroughputRps)
		}
		if res.HistogramOverheadPct >= 1 {
			return fmt.Errorf("cell %s: histogram overhead %.3f%% breaches the 1%% budget",
				cell, res.HistogramOverheadPct)
		}
	}
	if fresh.Server.Panics != 0 {
		return fmt.Errorf("server recovered %d handler panics", fresh.Server.Panics)
	}
	// Every error envelope the server wrote must be a 503 this harness saw
	// and retried; anything beyond that is an unexplained failure.
	if fresh.Server.RequestErrors > clientShed {
		return fmt.Errorf("server counted %d error responses but the client only saw %d sheds",
			fresh.Server.RequestErrors, clientShed)
	}
	return nil
}
