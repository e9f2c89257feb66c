package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	crsky "github.com/crsky/crsky"
	"github.com/crsky/crsky/internal/causality"
	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/prob"
	"github.com/crsky/crsky/internal/uncertain"
)

// explainWorkload is explain-20k: two datasets at n=20k and α=0.85 — the
// sample model (lUrU, 3-d, r∈[0,300]) and the uniform-pdf model (2-d,
// r≤100). One closed-loop client sends noCache /v2/explain batches of
// sample non-answers, chosen as in BENCH_explain's dense band (refinement
// pools of 12–17); the other sends batches of pdf non-answers under a
// candidate cap. The FMCS search, the prob Evaluator and the quadrature
// memo do the work; the R-tree only serves the candidate filter.
//
// Explanation cost varies by two orders of magnitude between non-answers,
// so a fixed batch would make the numbers depend on which few items a seed
// happens to pick. Each dataset therefore gets a pool of items around
// many query points, and every batch draws its items from a seeded
// shuffle of the pool: over a run the batches cover the whole pool.
type explainWorkload struct {
	sample, pdf explainSet
	sampleEng   *crsky.Engine
	pdfEng      *crsky.PDFEngine
	sampleObjs  []*crsky.Object
	pdfObjs     []*crsky.PDFObject
}

// explainSet is one dataset's item pool and the batch stream drawn from it.
type explainSet struct {
	dataset string
	kind    string
	batch   int
	opts    wireOptions
	pool    []explainItem
	rng     *rand.Rand
	order   []int // the current shuffle of the pool, consumed front first
}

// explainItem is one non-answer with its in-process reference explanation.
type explainItem struct {
	q    []float64
	id   int
	want *crsky.Explanation
}

const (
	explainAlpha   = 0.85
	sampleBatch    = 24
	samplePoints   = 64 // query points of the sample pool
	samplePerPoint = 24 // dense-band non-answers per sample query point
	pdfBatch       = 8
	pdfPoints      = 128 // query points of the pdf pool
	pdfScan        = 48  // nearest objects tried per pdf query point
	pdfMaxCands    = 12
	pdfMinCands    = 4
	sampleMaxCands = 22
)

func (w *explainWorkload) name() string    { return "explain-20k" }
func (w *explainWorkload) clients() int    { return 2 }
func (w *explainWorkload) primary() string { return "explain" }
func (w *explainWorkload) traced() string  { return "explain" }

func (w *explainWorkload) prepare(seed int64) error {
	rng := rand.New(rand.NewSource(seed*104729 + 7))
	objs, err := crsky.GenerateUncertain(crsky.UncertainConfig{
		N: 20_000, Dims: 3, Centers: crsky.DistUniform, Radii: crsky.DistUniform,
		RMin: 0, RMax: 300, Seed: seed,
	})
	if err != nil {
		return err
	}
	w.sampleObjs = objs
	if w.sampleEng, err = crsky.NewEngine(objs); err != nil {
		return err
	}
	w.sampleEng.Warm()
	w.sample = explainSet{dataset: "s20k", kind: "explain", batch: sampleBatch, rng: rand.New(rand.NewSource(rng.Int63()))}
	if err := w.selectSample(rng); err != nil {
		return err
	}

	pobjs, err := crsky.GenerateUncertainPDF(crsky.UncertainConfig{
		N: 20_000, Dims: 2, Centers: crsky.DistUniform, Radii: crsky.DistUniform,
		RMin: 0, RMax: 100, Seed: seed + 1,
	}, crsky.UniformPDF)
	if err != nil {
		return err
	}
	w.pdfObjs = pobjs
	if w.pdfEng, err = crsky.NewPDFEngine(pobjs); err != nil {
		return err
	}
	w.pdfEng.Warm()
	w.pdf = explainSet{dataset: "p20k", kind: "pdf_explain", batch: pdfBatch,
		opts: wireOptions{MaxCandidates: pdfMaxCands}, rng: rand.New(rand.NewSource(rng.Int63()))}
	return w.selectPDF(rng)
}

// perPoint runs sel for every query point on two workers and concatenates
// the items in query-point order, so the pool does not depend on timing.
func perPoint(qs [][]float64, sel func(q []float64) ([]explainItem, error)) ([]explainItem, error) {
	out := make([][]explainItem, len(qs))
	errs := make([]error, len(qs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = sel(qs[i])
			}
		}()
	}
	for i := range qs {
		next <- i
	}
	close(next)
	wg.Wait()
	var pool []explainItem
	for i := range qs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		pool = append(pool, out[i]...)
	}
	return pool, nil
}

// selectSample builds the sample pool: around each query point, the
// nearest dense-band non-answers — 12–22 filter candidates and a
// refinement pool (candidates that neither always dominate nor flip the
// non-answer alone) of 12–17. Only objects near a query point have so few
// candidates at n=20k, so each scan runs nearest first.
func (w *explainWorkload) selectSample(rng *rand.Rand) error {
	ds, err := dataset.NewUncertain(w.sampleObjs)
	if err != nil {
		return err
	}
	centers := make([][]float64, ds.Len())
	for i, o := range ds.Objects {
		c := make([]float64, 3)
		for _, s := range o.Samples {
			for j := range c {
				c[j] += s.P * s.Loc[j]
			}
		}
		centers[i] = c
	}
	qs := make([][]float64, samplePoints)
	for i := range qs {
		qs[i] = queryPoint(rng, 3)
	}
	w.sample.pool, err = perPoint(qs, func(qf []float64) ([]explainItem, error) {
		q := geom.Point(qf)
		var items []explainItem
		for _, id := range nearestFirst(centers, q) {
			if len(items) == samplePerPoint {
				return items, nil
			}
			an := ds.Objects[id]
			cands := causality.FilterCandidates(ds, q, an)
			if len(cands) < 12 || len(cands) > sampleMaxCands {
				continue
			}
			co := make([]*uncertain.Object, len(cands))
			for i, c := range cands {
				co[i] = ds.Objects[c]
			}
			e := prob.NewEvaluator(an, q, co)
			if prob.GEq(e.Pr(), explainAlpha) {
				continue
			}
			pool := 0
			for j := 0; j < e.N(); j++ {
				if !e.AlwaysDominates(j) && !prob.GEq(e.PrWithout(j), explainAlpha) {
					pool++
				}
			}
			if pool < 12 || pool > 17 {
				continue
			}
			res, err := w.sampleEng.ExplainCtx(context.Background(), id, q, explainAlpha, crsky.Options{})
			if err != nil {
				return nil, fmt.Errorf("reference explanation of sample object %d: %w", id, err)
			}
			items = append(items, explainItem{q: qf, id: id, want: res})
		}
		return nil, fmt.Errorf("found %d dense-band sample non-answers near %v, want %d", len(items), qf, samplePerPoint)
	})
	return err
}

// selectPDF builds the pdf pool: around each query point it tries the
// pdfScan nearest objects and keeps the non-answers whose filter yields
// pdfMinCands..pdfMaxCands candidates; the explanation computed to decide
// that is the item's reference. Objects over the cap fail fast in the
// filter, so selection stays cheap.
func (w *explainWorkload) selectPDF(rng *rand.Rand) error {
	opts := crsky.Options{MaxCandidates: pdfMaxCands}
	centers := make([][]float64, w.pdfEng.Len())
	for i := range centers {
		r := w.pdfEng.Object(i).Region
		c := make([]float64, 2)
		for j := range c {
			c[j] = (r.Min[j] + r.Max[j]) / 2
		}
		centers[i] = c
	}
	qs := make([][]float64, pdfPoints)
	for i := range qs {
		qs[i] = queryPoint(rng, 2)
	}
	var err error
	w.pdf.pool, err = perPoint(qs, func(qf []float64) ([]explainItem, error) {
		var items []explainItem
		for _, id := range nearestFirst(centers, qf)[:pdfScan] {
			res, err := w.pdfEng.ExplainCtx(context.Background(), id, qf, explainAlpha, opts)
			if errors.Is(err, crsky.ErrTooManyCandidates) || errors.Is(err, crsky.ErrNotNonAnswer) {
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("reference explanation of pdf object %d: %w", id, err)
			}
			if res.Candidates >= pdfMinCands {
				items = append(items, explainItem{q: qf, id: id, want: res})
			}
		}
		return items, nil
	})
	fmt.Fprintf(os.Stderr, "perfbench: explain-20k: pools of %d sample and %d pdf non-answers\n", len(w.sample.pool), len(w.pdf.pool))
	if err == nil && len(w.pdf.pool) < 4*pdfBatch {
		err = fmt.Errorf("found %d pdf non-answers, want at least %d", len(w.pdf.pool), 4*pdfBatch)
	}
	return err
}

func (w *explainWorkload) register(d *daemon) error {
	if _, err := doJSON(d.ctl, http.MethodPost, d.base+"/v1/datasets", sampleDataset(w.sample.dataset, w.sampleObjs), nil); err != nil {
		return err
	}
	_, err := doJSON(d.ctl, http.MethodPost, d.base+"/v1/datasets", pdfDataset(w.pdf.dataset, w.pdfObjs), nil)
	w.sampleObjs, w.pdfObjs = nil, nil
	return err
}

// next draws the next batch from the set's shuffled pool, reshuffling
// when the pool runs out; the stream continues across phases.
func (s *explainSet) next() []explainItem {
	items := make([]explainItem, 0, s.batch)
	for len(items) < s.batch {
		if len(s.order) == 0 {
			s.order = s.rng.Perm(len(s.pool))
		}
		items = append(items, s.pool[s.order[0]])
		s.order = s.order[1:]
	}
	return items
}

// cheapest is the pool item with the fewest candidates: the set-up probe,
// so set-up time does not hinge on one expensive search.
func (s *explainSet) cheapest() []explainItem {
	best := s.pool[0]
	for _, it := range s.pool[1:] {
		if it.want.Candidates < best.want.Candidates {
			best = it
		}
	}
	return []explainItem{best}
}

// probe explains the cheapest item of each dataset.
func (w *explainWorkload) probe(d *daemon) error {
	for _, s := range []*explainSet{&w.sample, &w.pdf} {
		if _, _, err := sendExplain(d.ctl, d.base+"/v2/explain", s, s.cheapest()); err != nil {
			return err
		}
	}
	return nil
}

// sendExplain posts items as one noCache batch and checks every line
// against the reference explanations.
func sendExplain(c *http.Client, url string, s *explainSet, items []explainItem) (*traceJSON, time.Duration, error) {
	req := wireExplainBatch{Dataset: s.dataset, Alpha: explainAlpha, Options: s.opts, NoCache: true}
	for _, it := range items {
		req.Items = append(req.Items, wireExplainItem{Q: it.q, An: it.id})
	}
	start := time.Now()
	body, _, err := do(c, http.MethodPost, url, req)
	elapsed := time.Since(start)
	if err != nil {
		return nil, elapsed, err
	}
	var tr *traceJSON
	seen := 0
	for _, line := range ndjsonLines(body) {
		var l wireExplainLine
		if err := json.Unmarshal(line, &l); err != nil {
			return nil, elapsed, fmt.Errorf("decode explain line: %w", err)
		}
		if l.Trace != nil {
			tr = l.Trace
			continue
		}
		if l.Index == nil || *l.Index != seen || seen >= len(items) {
			return nil, elapsed, fmt.Errorf("%s: explain line out of order: %s", s.dataset, line)
		}
		if l.Error != "" || l.Explain == nil {
			return nil, elapsed, fmt.Errorf("%s item %d: %s", s.dataset, seen, l.Error)
		}
		if err := sameExplanation(l.Explain, items[seen].want); err != nil {
			return nil, elapsed, fmt.Errorf("%s object %d: %w", s.dataset, items[seen].id, err)
		}
		seen++
	}
	if seen != len(items) {
		return nil, elapsed, fmt.Errorf("%s: %d explain lines, want %d", s.dataset, seen, len(items))
	}
	return tr, elapsed, nil
}

// sameExplanation compares a served explanation with the in-process one:
// the non-answer, the candidate count, and every cause with its
// responsibility.
func sameExplanation(got *wireExplanation, want *crsky.Explanation) error {
	if got.NonAnswer != want.NonAnswer || got.Candidates != want.Candidates || len(got.Causes) != len(want.Causes) {
		return fmt.Errorf("explanation (an %d, %d candidates, %d causes), want (an %d, %d candidates, %d causes)",
			got.NonAnswer, got.Candidates, len(got.Causes), want.NonAnswer, want.Candidates, len(want.Causes))
	}
	g := append([]wireCause(nil), got.Causes...)
	sort.Slice(g, func(i, j int) bool { return g[i].ID < g[j].ID })
	wc := append([]causality.Cause(nil), want.Causes...)
	sort.Slice(wc, func(i, j int) bool { return wc[i].ID < wc[j].ID })
	for i := range g {
		if g[i].ID != wc[i].ID || math.Abs(g[i].Responsibility-wc[i].Responsibility) > 1e-12 {
			return fmt.Errorf("cause %d (resp %g), want %d (resp %g)",
				g[i].ID, g[i].Responsibility, wc[i].ID, wc[i].Responsibility)
		}
	}
	return nil
}

func (w *explainWorkload) drive(d *daemon, dur time.Duration, traced bool) *phase {
	p := newPhase()
	url := d.base + "/v2/explain"
	if traced {
		url += "?trace=1"
	}
	sets := []*explainSet{&w.sample, &w.pdf}
	ok := make([]int, len(sets))
	runClients(p, len(sets), dur, func(i int, log *clientLog, deadline time.Time) {
		c := newClient()
		defer c.CloseIdleConnections()
		for time.Now().Before(deadline) {
			s := sets[i]
			start := time.Now()
			tr, elapsed, err := sendExplain(c, url, s, s.next())
			if err != nil {
				log.fail("%s: %v", s.kind, err)
				log.endCycle(1)
				continue
			}
			log.observe(s.kind, elapsed)
			log.endCycle(1)
			ok[i]++
			if traced {
				log.traces = append(log.traces, reqTrace{kind: s.kind, start: start, end: start.Add(elapsed), trace: tr})
			}
		}
	})
	p.data = ok[0] + ok[1]
	return p
}

// check is a no-op: every explain line is compared with its reference as
// it arrives, and a mismatch already failed its request.
func (w *explainWorkload) check(*phase) {}

func (w *explainWorkload) gates(p *phase, before, after scrape) []string {
	return commonGates(p, before, after, gateWant{computed: int64(p.data.(int))})
}

func (w *explainWorkload) layers(l *ledger, p *phase, before, after scrape) {
	var filter, greedy, search []float64
	var subsets, seeds, hits, filterIO, items float64
	for _, rt := range p.traces {
		if rt.kind != "explain" || rt.trace == nil {
			continue
		}
		t := rt.trace
		filter = append(filter, t.spanSum("explain.filter")/sampleBatch)
		greedy = append(greedy, t.spanSum("explain.greedy")/sampleBatch)
		search = append(search, t.spanSum("explain.search")/sampleBatch)
		subsets += float64(t.Counters["explain.subsetsExamined"])
		seeds += float64(t.Counters["explain.greedySeeds"])
		hits += float64(t.Counters["explain.greedyHits"])
		filterIO += float64(t.Counters["explain.filterNodeAccesses"])
		items += sampleBatch
	}
	if items > 0 {
		l.set("explain.filter_ms", quantile(filter, 0.5))
		l.set("explain.greedy_ms", quantile(greedy, 0.5))
		l.set("explain.search_ms", quantile(search, 0.5))
		l.set("explain.subsets_examined", subsets/items)
		l.set("explain.filter_node_accesses", filterIO/items)
		if seeds > 0 {
			l.set("explain.greedy_hit_ratio", hits/seeds)
		}
	}
	qh := after.stats.Quadrature.Hits - before.stats.Quadrature.Hits
	qm := after.stats.Quadrature.Misses - before.stats.Quadrature.Misses
	if qh+qm > 0 {
		l.set("quadrature.memo_hit_ratio", float64(qh)/float64(qh+qm))
	}
}

// replay repeats explanations in-process, then runs the two layers no
// timed traffic sends: minimal repairs and Definition-1 verification.
func (w *explainWorkload) replay(l *ledger, dataDir string) error {
	items := w.sample.pool[:4]
	for _, it := range items {
		if _, err := l.call("replay.Engine.ExplainCtx", func(ctx context.Context) error {
			_, err := w.sampleEng.ExplainCtx(ctx, it.id, it.q, explainAlpha, crsky.Options{})
			return err
		}); err != nil {
			return err
		}
	}
	var repair []float64
	for _, it := range items {
		if _, err := l.call("replay.Engine.RepairCtx", func(ctx context.Context) error {
			_, err := w.sampleEng.RepairCtx(ctx, it.id, it.q, explainAlpha, crsky.Options{})
			repair = append(repair, obsSpanSum(ctx, "repair.search"))
			return err
		}); err != nil {
			return err
		}
	}
	l.set("repair.search_ms", quantile(repair, 0.5))
	var verify []float64
	for _, it := range items[:3] {
		d, err := l.call("replay.Engine.VerifyCtx", func(ctx context.Context) error {
			return w.sampleEng.VerifyCtx(ctx, it.q, explainAlpha, it.want)
		})
		if err != nil {
			return err
		}
		verify = append(verify, msOf(d))
	}
	l.set("explain.verify_ms", quantile(verify, 0.5))
	for _, it := range w.pdf.pool[:2] {
		if _, err := l.call("replay.PDFEngine.ExplainCtx", func(ctx context.Context) error {
			_, err := w.pdfEng.ExplainCtx(ctx, it.id, it.q, explainAlpha, crsky.Options{MaxCandidates: pdfMaxCands})
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// nearestFirst orders object IDs by the distance of their centers from q.
func nearestFirst(centers [][]float64, q []float64) []int {
	d := make([]float64, len(centers))
	ids := make([]int, len(centers))
	for i, c := range centers {
		ids[i] = i
		for j := range q {
			d[i] += (c[j] - q[j]) * (c[j] - q[j])
		}
	}
	sort.Slice(ids, func(a, b int) bool { return d[ids[a]] < d[ids[b]] })
	return ids
}
