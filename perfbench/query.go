package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"time"

	crsky "github.com/crsky/crsky"
)

// queryWorkload is query-20k: the sample model (lUrU, 3-d, n=20k,
// r∈[0,5], α=0.5, the BENCH_prsq 20k cell). Two closed-loop clients send
// computed /v1/query requests, each for a fresh seeded point that is never
// repeated, so every request misses the result cache and fills it. The
// R-tree self-join, the bound tiers and exact Eq.-2 evaluation do nearly
// all the work.
type queryWorkload struct {
	eng    *crsky.Engine
	objs   []*crsky.Object
	rngs   []*rand.Rand // one point stream per client, continued across phases
	points *rand.Rand   // probe and replay points, disjoint from the clients' streams
}

// queryRecord is one completed query, kept for the post-phase check.
type queryRecord struct {
	q     []float64
	resp  wireQueryResp
	cache string
}

const (
	queryDataset = "q20k"
	queryAlpha   = 0.5
)

func (w *queryWorkload) name() string    { return "query-20k" }
func (w *queryWorkload) clients() int    { return 2 }
func (w *queryWorkload) primary() string { return "query" }
func (w *queryWorkload) traced() string  { return "query" }

func (w *queryWorkload) prepare(seed int64) error {
	objs, err := crsky.GenerateUncertain(crsky.UncertainConfig{
		N: 20_000, Dims: 3, Centers: crsky.DistUniform, Radii: crsky.DistUniform,
		RMin: 0, RMax: 5, Seed: seed,
	})
	if err != nil {
		return err
	}
	w.objs = objs
	if w.eng, err = crsky.NewEngine(objs); err != nil {
		return err
	}
	w.eng.Warm()
	for i := 0; i < w.clients(); i++ {
		w.rngs = append(w.rngs, rand.New(rand.NewSource(seed*7919+int64(i)+1)))
	}
	w.points = rand.New(rand.NewSource(seed*7919 + 1000))
	return nil
}

func (w *queryWorkload) register(d *daemon) error {
	_, err := doJSON(d.ctl, http.MethodPost, d.base+"/v1/datasets", sampleDataset(queryDataset, w.objs), nil)
	w.objs = nil // the engine keeps what the checks need
	return err
}

// queryPoint draws a query point away from the domain boundary, where its
// dominance neighbourhood is well populated.
func queryPoint(rng *rand.Rand, dims int) []float64 {
	q := make([]float64, dims)
	for j := range q {
		q[j] = 10000 * (0.3 + 0.4*rng.Float64())
	}
	return q
}

func (w *queryWorkload) probe(d *daemon) error {
	var r wireQueryResp
	_, err := doJSON(d.ctl, http.MethodPost, d.base+"/v1/query",
		wireQuery{Dataset: queryDataset, Q: queryPoint(w.points, 3), Alpha: queryAlpha}, &r)
	return err
}

func (w *queryWorkload) drive(d *daemon, dur time.Duration, traced bool) *phase {
	p := newPhase()
	url := d.base + "/v1/query"
	if traced {
		url += "?trace=1"
	}
	recs := make([][]queryRecord, w.clients())
	runClients(p, w.clients(), dur, func(i int, log *clientLog, deadline time.Time) {
		c := newClient()
		defer c.CloseIdleConnections()
		for time.Now().Before(deadline) {
			q := queryPoint(w.rngs[i], 3)
			var r wireQueryResp
			start := time.Now()
			h, err := doJSON(c, http.MethodPost, url, wireQuery{Dataset: queryDataset, Q: q, Alpha: queryAlpha}, &r)
			end := time.Now()
			if err != nil {
				log.fail("query %v: %v", q, err)
				log.endCycle(1)
				continue
			}
			log.observe("query", end.Sub(start))
			log.endCycle(1)
			recs[i] = append(recs[i], queryRecord{q: q, resp: r, cache: h.Get("X-Crsky-Cache")})
			if traced {
				log.traces = append(log.traces, reqTrace{kind: "query", start: start, end: end, trace: r.Trace})
			}
		}
	})
	var all []queryRecord
	for _, rs := range recs {
		all = append(all, rs...)
	}
	p.data = all
	return p
}

// check answers every recorded point in-process, one serial QueryCtx per
// point on each of two workers, and compares IDs, counts and the cache
// disposition.
func (w *queryWorkload) check(p *phase) {
	recs := p.data.([]queryRecord)
	want := make([][]int, len(recs))
	errs := make([]error, len(recs))
	next := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				want[i], _, errs[i] = w.eng.QueryCtx(context.Background(), recs[i].q, queryAlpha, crsky.QueryOptions{Parallel: 1})
			}
		}()
	}
	for i := range recs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, r := range recs {
		switch {
		case errs[i] != nil:
			p.checkFail("in-process query %v: %v", r.q, errs[i])
		case r.resp.Approx:
			p.checkFail("query %v: approximate answer", r.q)
		case r.cache != "miss":
			p.checkFail("query %v: cache %q, want miss", r.q, r.cache)
		case r.resp.Count != len(r.resp.Answers) || !slices.Equal(r.resp.Answers, want[i]):
			p.checkFail("query %v: answers %v, want %v", r.q, r.resp.Answers, want[i])
		}
	}
}

func (w *queryWorkload) gates(p *phase, before, after scrape) []string {
	return commonGates(p, before, after, gateWant{computed: int64(len(p.data.([]queryRecord)))})
}

func (w *queryWorkload) layers(l *ledger, p *phase, before, after scrape) {
	var join, exact, evaluated, objects, nodes []float64
	var joinTotal, nodeTotal float64
	for _, rt := range p.traces {
		t := rt.trace
		if t == nil {
			continue
		}
		j := t.spanSum("prsq.join")
		join = append(join, j)
		exact = append(exact, t.spanSum("prsq.exact"))
		evaluated = append(evaluated, float64(t.Counters["prsq.evaluated"]))
		objects = append(objects, float64(t.Counters["prsq.objects"]))
		n := float64(t.Counters["rtree.joinNodeAccesses"])
		nodes = append(nodes, n)
		joinTotal += j
		nodeTotal += n
	}
	if len(join) == 0 {
		return
	}
	l.set("prsq.join_ms", quantile(join, 0.5))
	l.set("prsq.exact_ms", quantile(exact, 0.5))
	l.set("prsq.evaluated", mean(evaluated))
	if o := mean(objects); o > 0 {
		l.set("prsq.bound_decided_ratio", 1-mean(evaluated)/o)
	}
	l.set("rtree.node_accesses", mean(nodes))
	if nodeTotal > 0 {
		l.set("rtree.ns_per_access", 1e6*joinTotal/nodeTotal)
	}
}

// replay repeats eight fresh points in-process through Engine.QueryCtx,
// recording the library's own stage spans.
func (w *queryWorkload) replay(l *ledger, dataDir string) error {
	for i := 0; i < 8; i++ {
		q := queryPoint(w.points, 3)
		if _, err := l.call("replay.Engine.QueryCtx", func(ctx context.Context) error {
			_, _, err := w.eng.QueryCtx(ctx, q, queryAlpha, crsky.QueryOptions{})
			return err
		}); err != nil {
			return fmt.Errorf("replay query: %w", err)
		}
	}
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
