package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/crsky/crsky/internal/obs"
	"github.com/crsky/crsky/internal/server"
	"github.com/crsky/crsky/internal/store"
)

// phase collects what the clients of one timed phase observed.
type phase struct {
	start     time.Time
	lat       map[string][]float64 // latency in ms per request kind
	cycles    [][]cycle            // one slice per client
	attempted int
	failed    int
	errs      []string // the first failure messages
	traces    []reqTrace
	data      any // the workload's own record of what was sent
}

// reqTrace is one ?trace=1 exchange: the client-side interval and the
// stage trace crskyd returned.
type reqTrace struct {
	kind       string
	start, end time.Time
	trace      *traceJSON
}

// traceJSON is the wire form of a crskyd stage trace.
type traceJSON struct {
	WallMs float64 `json:"wallMs"`
	Spans  []struct {
		Name    string  `json:"name"`
		StartMs float64 `json:"startMs"`
		DurMs   float64 `json:"durMs"`
	} `json:"spans"`
	Counters map[string]int64  `json:"counters"`
	Labels   map[string]string `json:"labels"`
}

// spanSum adds the durations of every span called name.
func (t *traceJSON) spanSum(name string) float64 {
	var s float64
	for _, sp := range t.Spans {
		if sp.Name == name {
			s += sp.DurMs
		}
	}
	return s
}

const maxErrs = 20

func newPhase() *phase { return &phase{start: time.Now(), lat: map[string][]float64{}} }

// clientLog is one client's private record, merged into the phase when
// the client stops, so clients never share state while they run.
type clientLog struct {
	p      *phase
	lat    map[string][]float64
	cycles []cycle
	att    int
	failed int
	errs   []string
	traces []reqTrace
}

func (p *phase) client() *clientLog {
	return &clientLog{p: p, lat: map[string][]float64{}}
}

// observe records one successful request of kind that took d.
func (c *clientLog) observe(kind string, d time.Duration) {
	c.att++
	c.lat[kind] = append(c.lat[kind], float64(d)/float64(time.Millisecond))
}

// extra records a latency that is not a request of its own, such as the
// delay before a watch event.
func (c *clientLog) extra(kind string, d time.Duration) {
	c.lat[kind] = append(c.lat[kind], float64(d)/float64(time.Millisecond))
}

// fail records one failed request: a transport error, a non-2xx status or
// a response that does not match the in-process answer.
func (c *clientLog) fail(format string, args ...any) {
	c.att++
	c.failed++
	if len(c.errs) < maxErrs {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// endCycle closes one closed-loop cycle of ops requests.
func (c *clientLog) endCycle(ops int) {
	c.cycles = append(c.cycles, cycle{end: time.Since(c.p.start), ops: ops})
}

// merge folds the client logs into the phase.
func (p *phase) merge(logs ...*clientLog) {
	for _, c := range logs {
		for k, xs := range c.lat {
			p.lat[k] = append(p.lat[k], xs...)
		}
		p.cycles = append(p.cycles, c.cycles)
		p.attempted += c.att
		p.failed += c.failed
		for _, e := range c.errs {
			if len(p.errs) < maxErrs {
				p.errs = append(p.errs, e)
			}
		}
		p.traces = append(p.traces, c.traces...)
	}
}

// checkFail records a mismatch found after the phase: the op was counted
// as attempted when it completed, so only the failure is added.
func (p *phase) checkFail(format string, args ...any) {
	p.failed++
	if len(p.errs) < maxErrs {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
}

// runClients starts n closed-loop clients, each running body until the
// deadline passes, waits for all of them and merges their logs.
func runClients(p *phase, n int, dur time.Duration, body func(i int, log *clientLog, deadline time.Time)) {
	deadline := p.start.Add(dur)
	logs := make([]*clientLog, n)
	var wg sync.WaitGroup
	for i := range logs {
		logs[i] = p.client()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body(i, logs[i], deadline)
		}(i)
	}
	wg.Wait()
	p.merge(logs...)
}

// ledger holds the traced run's spans and per-layer metrics. Spans stay in
// memory and are written out once, when the run ends.
type ledger struct {
	mu      sync.Mutex
	t0      time.Time
	nextID  int64
	nextReq int64
	spans   []span
	metrics map[string]float64
	set_    map[string]bool
}

func newLedger() *ledger {
	return &ledger{t0: time.Now(), metrics: map[string]float64{}, set_: map[string]bool{}}
}

// set records a per-layer metric.
func (l *ledger) set(name string, v float64) {
	l.metrics[name] = v
	l.set_[name] = true
}

func (l *ledger) ms(t time.Time) float64 { return float64(t.Sub(l.t0)) / float64(time.Millisecond) }

// root opens a new request in the ledger with one root span.
func (l *ledger) root(name string, start, end time.Time) (id, req int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	l.nextReq++
	l.spans = append(l.spans, span{ID: l.nextID, Req: l.nextReq, Name: name, Start: l.ms(start), End: l.ms(end)})
	return l.nextID, l.nextReq
}

// children adds a stage trace's spans under parent, offset from base (the
// instant the trace's clock started, in ledger ms).
func (l *ledger) children(parent, req int64, base float64, t *traceJSON) {
	if t == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, sp := range t.Spans {
		l.nextID++
		l.spans = append(l.spans, span{ID: l.nextID, Parent: parent, Req: req, Name: sp.Name,
			Start: base + sp.StartMs, End: base + sp.StartMs + sp.DurMs})
	}
}

// addHTTPSpans records every traced exchange of p: a root span for the
// client-side interval and the server's stage spans as its children. The
// server's trace clock starts after the request left the client, so the
// children are placed from the root's start; the gap shows as the root's
// self time (transport, decoding, handler work outside any stage).
func (l *ledger) addHTTPSpans(p *phase) {
	for _, rt := range p.traces {
		id, req := l.root("http."+rt.kind, rt.start, rt.end)
		l.children(id, req, l.ms(rt.start), rt.trace)
	}
}

// call runs one in-process layer call with an obs.Trace in its context and
// records it as a root span named name with the trace's stage spans as
// children.
func (l *ledger) call(name string, fn func(ctx context.Context) error) (time.Duration, error) {
	tr := obs.New()
	ctx := obs.WithTrace(context.Background(), tr)
	start := time.Now()
	err := fn(ctx)
	end := time.Now()
	id, req := l.root(name, start, end)
	var tj traceJSON
	if b, merr := json.Marshal(tr.Snapshot()); merr == nil && json.Unmarshal(b, &tj) == nil {
		l.children(id, req, l.ms(start), &tj)
	}
	return end.Sub(start), err
}

// selfTimeSummary is the median self time of every span name, in ms.
func (l *ledger) selfTimeSummary() map[string]float64 {
	self := selfTimes(l.spans)
	by := map[string][]float64{}
	for _, s := range l.spans {
		by[s.Name] = append(by[s.Name], self[s.ID])
	}
	out := make(map[string]float64, len(by))
	for name, xs := range by {
		out[name] = quantile(xs, 0.5)
	}
	return out
}

// idle names the per-layer metrics this workload never measured; they
// read 0 because the layer does no work here.
func (l *ledger) idle(defs []metricDef, workload string) map[string]string {
	out := map[string]string{}
	for _, m := range defs {
		if !l.set_[m.name] {
			out[m.name] = "layer idle on " + workload
		}
	}
	return out
}

func (l *ledger) writeSpans(path string) error {
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// replayBoot repeats crskyd's boot in-process on the stopped server's data
// directory: store.Open (recovery) and LoadFromStore (decode, build,
// warm). Each is recorded three times; the medians are the boot metrics.
func replayBoot(l *ledger, dataDir string) error {
	var open, load []float64
	for i := 0; i < 3; i++ {
		var st *store.Store
		d, err := l.call("replay.store.Open", func(context.Context) error {
			var err error
			st, _, err = store.Open(dataDir, store.Options{})
			return err
		})
		if err != nil {
			return err
		}
		open = append(open, msOf(d))
		srv := server.New(server.Config{Store: st})
		d, err = l.call("replay.LoadFromStore", func(context.Context) error {
			n, q, err := srv.LoadFromStore()
			if err == nil && (n == 0 || len(q) > 0) {
				err = fmt.Errorf("loaded %d datasets, quarantined %s", n, strings.Join(q, ","))
			}
			return err
		})
		st.Close()
		if err != nil {
			return err
		}
		load = append(load, msOf(d))
	}
	l.set("boot.store_open_ms", quantile(open, 0.5))
	l.set("boot.load_ms", quantile(load, 0.5))
	return nil
}

// obsSpanSum adds the durations of the spans called name recorded so far
// by the obs.Trace in ctx.
func obsSpanSum(ctx context.Context, name string) float64 {
	tj := obs.FromContext(ctx).Snapshot()
	if tj == nil {
		return 0
	}
	var s float64
	for _, sp := range tj.Spans {
		if sp.Name == name {
			s += sp.DurMs
		}
	}
	return s
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
