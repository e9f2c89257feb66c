package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	crsky "github.com/crsky/crsky"
	"github.com/crsky/crsky/internal/store"
)

// writeWatchWorkload is write-watch: the certain model (independent, 2-d,
// n=50k) under a closed loop of one request connection plus one held
// /v2/watch stream. Each cycle watches a non-answer whose only dominator
// is its cause, deletes the cause and waits for the "flipped" line, posts
// the cause back, then sends six /v1/query reads alternating between two
// points, so four of the six hit the result cache. WAL append, COW apply,
// BBRS re-evaluation and the watch hub do the work, beside the cache and
// HTTP path of the reads.
//
// BBRS cost depends on the query point, so targets (one per watched query
// point) and read pairs rotate through 32 of each; a handful of points
// would make the numbers depend on which points a seed picks.
type writeWatchWorkload struct {
	pts     []crsky.Point
	mirror  crsky.Explainer // the in-process engine at the last checked state
	reads   [][]float64     // read rotation
	targets []wwTarget
	next    int // next target, continued across phases
}

// wwPhase is what one phase sent: the dataset generation it started at and
// its completed cycles.
type wwPhase struct {
	gen0   uint64
	cycles []wwCycle
}

// wwTarget is a watched non-answer of the query point q and the single
// point that dominates it; causeID is the cause's current object ID (it
// changes on re-insert).
type wwTarget struct {
	q       []float64
	an      int
	causeID int
	cause   []float64
}

// wwCycle records what one cycle sent and saw, for the post-phase check.
type wwCycle struct {
	target    int
	deletedID int
	regGen    uint64
	delGen    uint64
	flip      wireWatchEvent
	insGen    uint64
	insID     int
	reads     []wwRead
}

type wwRead struct {
	point int
	resp  wireQueryResp
	cache string
}

const (
	wwDataset     = "ww50k"
	wwTargets     = 32 // one per watched query point
	readPoints    = 32
	readsPerCycle = 6 // over a pair of read points: two misses, four hits
)

func (w *writeWatchWorkload) name() string    { return "write-watch" }
func (w *writeWatchWorkload) clients() int    { return 1 }
func (w *writeWatchWorkload) primary() string { return "notify" }
func (w *writeWatchWorkload) traced() string  { return "read" }

func (w *writeWatchWorkload) prepare(seed int64) error {
	pts, err := crsky.GenerateCertain(crsky.CertainConfig{N: 50_000, Dims: 2, Kind: crsky.Independent, Seed: seed})
	if err != nil {
		return err
	}
	w.pts = pts
	eng, err := crsky.NewCertainEngine(pts)
	if err != nil {
		return err
	}
	eng.Warm()
	w.mirror = eng
	rng := rand.New(rand.NewSource(seed*15485863 + 3))
	if err := w.selectTargets(rng); err != nil {
		return err
	}
	for i := 0; i < readPoints; i++ {
		w.reads = append(w.reads, queryPoint(rng, 2))
	}
	return nil
}

// dominates reports whether p dynamically dominates q with respect to an:
// at least as close to an in every dimension and closer in one.
func dominates(p, q, an []float64) bool {
	strict := false
	for j := range an {
		dp, dq := math.Abs(p[j]-an[j]), math.Abs(q[j]-an[j])
		if dp > dq {
			return false
		}
		if dp < dq {
			strict = true
		}
	}
	return strict
}

// selectTargets finds one watch target per query point: a non-answer
// with exactly one dominator (found by brute force), keeping causes and
// targets disjoint, with each flip confirmed on the in-process engine. A
// point's dominators lie in the box spanned by its distances to the query
// point, so each scan runs in ascending order of that box's volume, where
// dominators are fewest. Few points per query point qualify, hence one
// target per point.
func (w *writeWatchWorkload) selectTargets(rng *rand.Rand) error {
	used := map[int]bool{}
	ctx := context.Background()
	order := make([]int, len(w.pts))
	vol := make([]float64, len(w.pts))
	for attempt := 0; attempt < 16*wwTargets && len(w.targets) < wwTargets; attempt++ {
		q := queryPoint(rng, 2)
		for i, p := range w.pts {
			order[i] = i
			vol[i] = math.Abs(p[0]-q[0]) * math.Abs(p[1]-q[1])
		}
		sort.Slice(order, func(a, b int) bool { return vol[order[a]] < vol[order[b]] })
		for _, an := range order[:400] {
			if used[an] {
				continue
			}
			cause, n := -1, 0
			for j, p := range w.pts {
				if j != an && dominates(p, q, w.pts[an]) {
					cause = j
					if n++; n > 1 {
						break
					}
				}
			}
			if n != 1 || used[cause] {
				continue
			}
			del, err := w.mirror.(crsky.Mutable).WithDelete(cause)
			if err != nil {
				return err
			}
			ids, _, err := del.QueryCtx(ctx, q, 1, crsky.QueryOptions{})
			if err != nil {
				return err
			}
			if !slices.Contains(ids, an) {
				return fmt.Errorf("deleting object %d does not flip object %d", cause, an)
			}
			used[an], used[cause] = true, true
			w.targets = append(w.targets, wwTarget{q: q, an: an, causeID: cause, cause: w.pts[cause]})
			break
		}
	}
	if len(w.targets) < wwTargets {
		return fmt.Errorf("found %d single-dominator non-answers, want %d", len(w.targets), wwTargets)
	}
	return nil
}

func (w *writeWatchWorkload) register(d *daemon) error {
	_, err := doJSON(d.ctl, http.MethodPost, d.base+"/v1/datasets", certainDataset(wwDataset, w.pts), nil)
	w.pts = nil
	return err
}

// probe answers one read of each rotation point and registers one watch
// (its baseline evaluation is a computed answer), then cancels it.
func (w *writeWatchWorkload) probe(d *daemon) error {
	if _, err := doJSON(d.ctl, http.MethodPost, d.base+"/v1/query", wireQuery{Dataset: wwDataset, Q: w.reads[0]}, nil); err != nil {
		return err
	}
	ws, err := openWatch(d.ctl, d.base, wireWatch{Dataset: wwDataset, Q: w.targets[0].q, An: w.targets[0].an})
	if err != nil {
		return err
	}
	ws.close()
	return nil
}

// watchStream is one held /v2/watch response read line by line.
type watchStream struct {
	body   io.ReadCloser
	events chan watchLine
	reg    wireWatchEvent
}

type watchLine struct {
	ev  wireWatchEvent
	at  time.Time
	err error
}

// openWatch subscribes and returns once the "registered" line arrived;
// later lines are delivered on events until the stream ends.
func openWatch(c *http.Client, base string, req wireWatch) (*watchStream, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := c.Post(base+"/v2/watch", "application/json", bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, &httpError{status: resp.StatusCode, body: string(msg)}
	}
	ws := &watchStream{body: resp.Body, events: make(chan watchLine, 4)}
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadBytes('\n')
	if err != nil {
		resp.Body.Close()
		return nil, fmt.Errorf("watch: no registered line: %w", err)
	}
	if err := json.Unmarshal(line, &ws.reg); err != nil || ws.reg.Event != "registered" {
		resp.Body.Close()
		return nil, fmt.Errorf("watch: first line %q", line)
	}
	go func() {
		defer close(ws.events)
		for {
			line, err := br.ReadBytes('\n')
			at := time.Now()
			if len(bytes.TrimSpace(line)) > 0 {
				var ev wireWatchEvent
				if jerr := json.Unmarshal(line, &ev); jerr != nil {
					ws.events <- watchLine{err: jerr}
					return
				}
				ws.events <- watchLine{ev: ev, at: at}
			}
			if err != nil {
				return
			}
		}
	}()
	return ws, nil
}

// close cancels the subscription and waits for the reader to finish.
func (ws *watchStream) close() {
	ws.body.Close()
	for range ws.events {
	}
}

func (w *writeWatchWorkload) drive(d *daemon, dur time.Duration, traced bool) *phase {
	p := newPhase()
	rec := &wwPhase{}
	p.data = rec
	readURL := d.base + "/v1/query"
	if traced {
		readURL += "?trace=1"
	}
	runClients(p, 1, dur, func(_ int, log *clientLog, deadline time.Time) {
		c, wc := newClient(), newClient()
		defer c.CloseIdleConnections()
		defer wc.CloseIdleConnections()
		if _, err := doJSON(c, http.MethodGet, d.base+"/v1/datasets/"+wwDataset, nil, &struct {
			Generation *uint64 `json:"generation"`
		}{&rec.gen0}); err != nil {
			log.fail("dataset info: %v", err)
			return
		}
		for time.Now().Before(deadline) {
			cy, err := w.cycle(c, wc, d.base, readURL, log, traced)
			if err != nil {
				// A broken cycle leaves the dataset in an unknown state;
				// later cycles would only fail in its wake.
				log.fail("cycle %d: %v", len(rec.cycles), err)
				return
			}
			rec.cycles = append(rec.cycles, cy)
			log.endCycle(3 + readsPerCycle)
		}
	})
	return p
}

// cycle runs one watch → delete → flip → insert → reads round.
func (w *writeWatchWorkload) cycle(c, wc *http.Client, base, readURL string, log *clientLog, traced bool) (wwCycle, error) {
	k := w.next % len(w.targets)
	t := &w.targets[k]
	rec := wwCycle{target: k, deletedID: t.causeID}

	start := time.Now()
	ws, err := openWatch(wc, base, wireWatch{Dataset: wwDataset, Q: t.q, An: t.an})
	if err != nil {
		return rec, fmt.Errorf("watch: %w", err)
	}
	defer ws.close()
	log.observe("watch", time.Since(start))
	rec.regGen = ws.reg.Generation

	var ack wireMutation
	start = time.Now()
	if _, err := doJSON(c, http.MethodDelete, fmt.Sprintf("%s/v2/datasets/%s/objects/%d", base, wwDataset, t.causeID), nil, &ack); err != nil {
		return rec, fmt.Errorf("delete %d: %w", t.causeID, err)
	}
	acked := time.Now()
	log.observe("delete", acked.Sub(start))
	log.extra("write", acked.Sub(start))
	rec.delGen = ack.Generation

	select {
	case l, ok := <-ws.events:
		if !ok || l.err != nil {
			return rec, fmt.Errorf("watch stream ended without a flip: %v", l.err)
		}
		rec.flip = l.ev
		log.extra("notify", l.at.Sub(acked))
	case <-time.After(30 * time.Second):
		return rec, fmt.Errorf("no flipped event within 30s")
	}
	// The flip is terminal: drain the stream to its end, so the server
	// has unregistered the subscription before the next write.
	for open := true; open; {
		select {
		case _, open = <-ws.events:
		case <-time.After(30 * time.Second):
			return rec, fmt.Errorf("watch stream still open 30s after its flip")
		}
	}

	start = time.Now()
	if _, err := doJSON(c, http.MethodPost, fmt.Sprintf("%s/v2/datasets/%s/objects", base, wwDataset),
		wireInsert{Point: t.cause}, &ack); err != nil {
		return rec, fmt.Errorf("insert: %w", err)
	}
	took := time.Since(start)
	log.observe("insert", took)
	log.extra("write", took)
	rec.insGen, rec.insID = ack.Generation, ack.ID
	t.causeID = ack.ID
	w.next++

	pair := 2 * (k % (len(w.reads) / 2))
	for i := 0; i < readsPerCycle; i++ {
		pi := pair + i%2
		var r wireQueryResp
		start = time.Now()
		h, err := doJSON(c, http.MethodPost, readURL, wireQuery{Dataset: wwDataset, Q: w.reads[pi]}, &r)
		end := time.Now()
		if err != nil {
			return rec, fmt.Errorf("read: %w", err)
		}
		log.observe("read", end.Sub(start))
		cache := h.Get("X-Crsky-Cache")
		if traced {
			log.traces = append(log.traces, reqTrace{kind: "read", start: start, end: end, trace: r.Trace})
		}
		rec.reads = append(rec.reads, wwRead{point: pi, resp: r, cache: cache})
	}
	return rec, nil
}

// check replays the phase's mutations on the in-process mirror with
// WithDelete/WithInsert and compares every stamped generation, the flip
// and every read with the mirror's answer at that generation.
func (w *writeWatchWorkload) check(p *phase) {
	ctx := context.Background()
	ph := p.data.(*wwPhase)
	gen := ph.gen0
	for i, rec := range ph.cycles {
		t := w.targets[rec.target]
		fail := func(format string, args ...any) {
			p.checkFail("cycle %d: %s", i, fmt.Sprintf(format, args...))
		}
		if rec.regGen != gen {
			fail("watch registered at generation %d, want %d", rec.regGen, gen)
		}
		del, err := w.mirror.(crsky.Mutable).WithDelete(rec.deletedID)
		if err != nil {
			fail("mirror delete: %v", err)
			return
		}
		ids, _, err := del.QueryCtx(ctx, t.q, 1, crsky.QueryOptions{})
		if err != nil || !slices.Contains(ids, t.an) {
			fail("object %d is no answer after deleting %d (err %v)", t.an, rec.deletedID, err)
		}
		if rec.delGen != gen+1 || rec.flip.Event != "flipped" || !rec.flip.Answer ||
			rec.flip.An != t.an || rec.flip.Generation != rec.delGen {
			fail("delete at generation %d, flip %+v; want generation %d and a flip of %d", rec.delGen, rec.flip, gen+1, t.an)
		}
		ins, id, err := del.(crsky.Mutable).WithInsert(crsky.InsertSpec{Point: t.cause})
		if err != nil {
			fail("mirror insert: %v", err)
			return
		}
		if rec.insID != id || rec.insGen != gen+2 {
			fail("insert got id %d at generation %d, want id %d at %d", rec.insID, rec.insGen, id, gen+2)
		}
		w.mirror, gen = ins, gen+2
		want := map[int][]int{}
		for _, r := range rec.reads {
			if _, ok := want[r.point]; ok {
				continue
			}
			ids, _, err := w.mirror.QueryCtx(ctx, w.reads[r.point], 1, crsky.QueryOptions{})
			if err != nil {
				fail("mirror query: %v", err)
				return
			}
			want[r.point] = ids
		}
		for _, r := range rec.reads {
			if r.resp.Generation != gen || !slices.Equal(r.resp.Answers, want[r.point]) || r.resp.Count != len(r.resp.Answers) {
				fail("read of point %d at generation %d: %v, want %v at %d",
					r.point, r.resp.Generation, r.resp.Answers, want[r.point], gen)
			}
		}
	}
}

func (w *writeWatchWorkload) gates(p *phase, before, after scrape) []string {
	recs := p.data.(*wwPhase).cycles
	cycles := int64(len(recs))
	var misses, hits int64
	for _, r := range recs {
		for _, rd := range r.reads {
			if rd.cache == "hit" {
				hits++
			} else {
				misses++
			}
		}
	}
	// Pool work per cycle: the watch's baseline evaluation, the hub's
	// re-evaluation after the delete, and every read that missed.
	v := commonGates(p, before, after, gateWant{computed: 2*cycles + misses, cacheHits: hits, mutations: 2 * cycles, flips: cycles})
	if d := after.stats.Watch.Reevals - before.stats.Watch.Reevals; d != cycles {
		v = append(v, fmt.Sprintf("watch ran %d re-evaluation rounds, client expected %d", d, cycles))
	}
	return v
}

func (w *writeWatchWorkload) layers(l *ledger, p *phase, before, after scrape) {
	var bbrs []float64
	for _, rt := range p.traces {
		if rt.trace != nil && rt.trace.Labels["cache"] == "miss" {
			bbrs = append(bbrs, rt.trace.spanSum("query.bbrs"))
		}
	}
	if len(bbrs) > 0 {
		l.set("query.bbrs_ms", quantile(bbrs, 0.5))
	}
	rh := after.prom.histogramOf("crsky_watch_reeval_seconds", nil).minus(before.prom.histogramOf("crsky_watch_reeval_seconds", nil))
	if rh.count > 0 {
		// The hub starts re-evaluating at the commit, before the DELETE is
		// acknowledged, so delivery (notify minus re-evaluation) can read
		// below zero when the event overtakes the acknowledgement.
		reeval := 1000 * rh.quantile(0.5)
		l.set("watch.reeval_ms", reeval)
		l.set("watch.deliver_ms", quantile(p.lat["notify"], 0.5)-reeval)
	}
	if re := after.stats.Watch.Reevals - before.stats.Watch.Reevals; re > 0 {
		l.set("watch.useful_reeval_ratio", float64(after.stats.Watch.Flipped-before.stats.Watch.Flipped)/float64(re))
	}
}

// replay repeats the cycle's layers in-process on the mirror and on the
// stopped server's store: BBRS reads, COW deletes and inserts with their
// allocation, and WAL appends with fsync off and on through a counting
// filesystem.
func (w *writeWatchWorkload) replay(l *ledger, dataDir string) error {
	for _, q := range w.reads {
		if _, err := l.call("replay.CertainEngine.QueryCtx", func(ctx context.Context) error {
			_, _, err := w.mirror.QueryCtx(ctx, q, 1, crsky.QueryOptions{})
			return err
		}); err != nil {
			return err
		}
	}
	eng := w.mirror
	var apply, alloc []float64
	var ms runtime.MemStats
	for i := 0; i < 2*wwTargets; i++ {
		t := &w.targets[i%len(w.targets)]
		runtime.ReadMemStats(&ms)
		a0 := ms.TotalAlloc
		var next crsky.Explainer
		d, err := l.call("replay.WithDelete", func(context.Context) error {
			var err error
			next, err = eng.(crsky.Mutable).WithDelete(t.causeID)
			return err
		})
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&ms)
		apply, alloc = append(apply, msOf(d)), append(alloc, float64(ms.TotalAlloc-a0)/1024)
		a0 = ms.TotalAlloc
		d, err = l.call("replay.WithInsert", func(context.Context) error {
			var err error
			eng, t.causeID, err = next.(crsky.Mutable).WithInsert(crsky.InsertSpec{Point: t.cause})
			return err
		})
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&ms)
		apply, alloc = append(apply, msOf(d)), append(alloc, float64(ms.TotalAlloc-a0)/1024)
	}
	l.set("mutate.apply_ms", quantile(apply, 0.5))
	l.set("mutate.alloc_kb", mean(alloc))

	off, err := w.replayWAL(l, dataDir, false)
	if err != nil {
		return err
	}
	on, err := w.replayWAL(l, dataDir, true)
	if err != nil {
		return err
	}
	l.set("store.wal_append_ms", quantile(off.ms, 0.5))
	l.set("store.fsync_ms", on.syncMs/float64(len(on.ms)))
	l.set("store.wal_bytes_per_write", float64(off.walBytes)/float64(len(off.ms)))
	l.set("store.syncs_per_write", float64(on.syncs)/float64(len(on.ms)))
	return nil
}

type walReplay struct {
	ms       []float64
	walBytes int64
	syncs    int64
	syncMs   float64 // time inside file and directory syncs
}

// replayWAL opens the stopped server's store through a counting
// filesystem and appends one delete and one insert per target, as the
// server does for a cycle.
func (w *writeWatchWorkload) replayWAL(l *ledger, dataDir string, fsync bool) (walReplay, error) {
	var out walReplay
	fs := &countingFS{FS: store.OS}
	st, _, err := store.Open(dataDir, store.Options{Fsync: fsync, FS: fs})
	if err != nil {
		return out, err
	}
	defer st.Close()
	fs.walBytes.Store(0)
	fs.syncs.Store(0)
	fs.syncNs.Store(0)
	name := fmt.Sprintf("replay.store.AppendMutation(fsync=%v)", fsync)
	for i := 0; i < len(w.targets); i++ {
		t := w.targets[i]
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(struct{ Point []float64 }{t.cause}); err != nil {
			return out, err
		}
		for _, m := range []store.Mutation{
			{Op: store.MutDelete, ID: t.causeID},
			{Op: store.MutInsert, ID: t.causeID + 1, Data: buf.Bytes()},
		} {
			d, err := l.call(name, func(context.Context) error {
				_, err := st.AppendMutation(wwDataset, m)
				return err
			})
			if err != nil {
				return out, err
			}
			out.ms = append(out.ms, msOf(d))
		}
	}
	out.walBytes, out.syncs = fs.walBytes.Load(), fs.syncs.Load()
	out.syncMs = float64(fs.syncNs.Load()) / 1e6
	return out, nil
}

// countingFS wraps a store.FS, counting bytes written to the WAL and every
// durability barrier (file and directory syncs) with the time spent in it.
type countingFS struct {
	store.FS
	walBytes atomic.Int64
	syncs    atomic.Int64
	syncNs   atomic.Int64
}

// timeSync counts one durability barrier and the time it took.
func (c *countingFS) timeSync(sync func() error) error {
	start := time.Now()
	err := sync()
	c.syncs.Add(1)
	c.syncNs.Add(int64(time.Since(start)))
	return err
}

func (c *countingFS) Create(path string) (store.File, error) {
	f, err := c.FS.Create(path)
	return c.wrap(path, f, err)
}

func (c *countingFS) OpenAppend(path string) (store.File, error) {
	f, err := c.FS.OpenAppend(path)
	return c.wrap(path, f, err)
}

func (c *countingFS) SyncDir(dir string) error {
	return c.timeSync(func() error { return c.FS.SyncDir(dir) })
}

func (c *countingFS) wrap(path string, f store.File, err error) (store.File, error) {
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c, wal: filepath.Base(path) == "wal.log"}, nil
}

type countingFile struct {
	store.File
	fs  *countingFS
	wal bool
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if f.wal {
		f.fs.walBytes.Add(int64(n))
	}
	return n, err
}

func (f *countingFile) Sync() error {
	return f.fs.timeSync(f.File.Sync)
}
