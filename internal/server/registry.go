package server

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	crsky "github.com/crsky/crsky"
	"github.com/crsky/crsky/internal/causality"
	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/stats"
	"github.com/crsky/crsky/internal/store"
	"github.com/crsky/crsky/internal/uncertain"
)

// entry is one registered dataset with its warmed engine behind the
// model-generic crsky.Explainer interface — every compute path (v1 and v2,
// single and batch) dispatches through it with no per-model switch.
// Entries are immutable after registration, so any number of requests may
// read them concurrently; replacing a dataset installs a fresh entry with
// a new generation instead of mutating the old one (in-flight requests on
// the old entry finish against the data they started with, and the
// generation in every cache key retires the old entry's cached results).
type entry struct {
	name  string
	model string
	gen   uint64
	size  int
	dims  int
	eng   crsky.Explainer
	// accesses totals the node accesses of every engine call made for
	// this registration. A COW mutation hands the same counter to its
	// successor entry, so a request still running on the replaced engine
	// adds to the total it is exported under.
	accesses *stats.Counter
}

func (e *entry) info() DatasetInfo {
	return DatasetInfo{
		Name:         e.name,
		Model:        e.model,
		Size:         e.size,
		Dims:         e.dims,
		Generation:   e.gen,
		NodeAccesses: e.accesses.Value(),
	}
}

// addRepair adds the node accesses of a repair to the dataset's total; a
// failed repair (nil) made none worth counting.
func (e *entry) addRepair(rep *causality.Repair) {
	if rep != nil {
		e.accesses.Add(rep.FilterNodeAccesses)
	}
}

// queryOptions are the serving options of every request-path query:
// StageBudget splits a request deadline between the join and the exact
// stage, so a stalled join leaves the refinement (or the approximate
// fallback) a guaranteed slice; without a deadline it is a no-op.
func queryOptions(quadNodes int) crsky.QueryOptions {
	return crsky.QueryOptions{QuadNodes: quadNodes, StageBudget: true}
}

// registry maps dataset names to entries. The generation counter is global
// and monotone so that a name reused across registrations never aliases
// stale cache keys.
type registry struct {
	mu  sync.RWMutex
	m   map[string]*entry
	gen atomic.Uint64
	// wrap, when set (fault injection only), decorates every engine at
	// registration time.
	wrap func(crsky.Explainer) crsky.Explainer
	// st, when set, makes register/remove write-through durable. regMu
	// serializes mutations so the WAL's operation order always matches the
	// map's last-writer-wins order; reads stay on the RWMutex alone.
	st    *store.Store
	regMu sync.Mutex
}

func newRegistry(wrap func(crsky.Explainer) crsky.Explainer, st *store.Store) *registry {
	return &registry{m: make(map[string]*entry), wrap: wrap, st: st}
}

func (r *registry) get(name string) (*entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.m[name]
	return e, ok
}

func (r *registry) list() []DatasetInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]DatasetInfo, 0, len(r.m))
	for _, e := range r.m {
		out = append(out, e.info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (r *registry) count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.m)
}

// remove uninstalls a dataset and deletes its durable state. The bool
// reports whether the name existed; a non-nil error means the in-memory
// removal happened but the durable delete failed.
func (r *registry) remove(name string) (bool, error) {
	r.regMu.Lock()
	defer r.regMu.Unlock()
	r.mu.Lock()
	_, ok := r.m[name]
	delete(r.m, name)
	r.mu.Unlock()
	if ok && r.st != nil {
		if err := r.st.Delete(name); err != nil {
			return true, fmt.Errorf("dataset removed from memory but not from disk: %w", err)
		}
	}
	return ok, nil
}

// register builds, warms, and installs the dataset described by req,
// replacing any same-named predecessor. With a store attached the dataset
// is made durable FIRST: a registration is acknowledged only after its WAL
// append, so an acknowledged dataset survives a crash.
func (r *registry) register(req *DatasetRequest) (*entry, error) {
	name := strings.TrimSpace(req.Name)
	if name == "" {
		return nil, fmt.Errorf("dataset name is required")
	}
	e, err := buildEntry(req)
	if err != nil {
		return nil, err
	}
	if r.wrap != nil {
		e.eng = r.wrap(e.eng)
	}
	e.name = name
	r.regMu.Lock()
	defer r.regMu.Unlock()
	if r.st != nil {
		model, data, err := encodeStorePayload(req)
		if err != nil {
			return nil, err
		}
		if err := r.st.Put(name, model, data); err != nil {
			return nil, fmt.Errorf("durable write failed, dataset not registered: %w", err)
		}
	}
	e.gen = r.gen.Add(1)
	r.mu.Lock()
	r.m[name] = e
	r.mu.Unlock()
	return e, nil
}

// installStored rebuilds and installs one recovered dataset without
// re-writing it — the startup path over the store's recovered state.
func (r *registry) installStored(d store.Dataset) error {
	req, err := decodeStoreDataset(d)
	if err != nil {
		return err
	}
	e, err := buildEntry(req)
	if err != nil {
		return err
	}
	if r.wrap != nil {
		e.eng = r.wrap(e.eng)
	}
	e.name = d.Name
	// Replay the recovered mutation log over the rebuilt base: the same
	// copy-on-write path the live endpoints take, so recovery reconverges
	// to the exact pre-crash engine (IDs, tombstones, and all).
	if err := applyStoredMutations(e, d.Muts); err != nil {
		return err
	}
	e.gen = r.gen.Add(1)
	r.mu.Lock()
	r.m[d.Name] = e
	r.mu.Unlock()
	return nil
}

func buildEntry(req *DatasetRequest) (*entry, error) {
	model := req.Model
	if model == "uncertain" {
		model = ModelSample
	}
	// Registration is the single place that knows the three concrete
	// engine types; everything downstream sees crsky.Explainer.
	var eng crsky.Explainer
	switch model {
	case ModelCertain:
		pts, err := certainPoints(req)
		if err != nil {
			return nil, err
		}
		ce, err := crsky.NewCertainEngine(pts)
		if err != nil {
			return nil, err
		}
		eng = ce

	case ModelSample:
		objs, err := sampleObjects(req)
		if err != nil {
			return nil, err
		}
		se, err := crsky.NewEngine(objs)
		if err != nil {
			return nil, err
		}
		eng = se

	case ModelPDF:
		objs, err := pdfObjects(req)
		if err != nil {
			return nil, err
		}
		pe, err := crsky.NewPDFEngine(objs)
		if err != nil {
			return nil, err
		}
		eng = pe

	default:
		return nil, fmt.Errorf("unknown model %q (want certain, sample, or pdf)", req.Model)
	}
	eng.Warm()
	return &entry{model: model, size: eng.Len(), dims: eng.Dims(), eng: eng, accesses: new(stats.Counter)}, nil
}

func certainPoints(req *DatasetRequest) ([]geom.Point, error) {
	if req.CSV != "" {
		ds, err := dataset.LoadCertainCSV(strings.NewReader(req.CSV))
		if err != nil {
			return nil, err
		}
		return ds.Points, nil
	}
	if len(req.Points) == 0 {
		return nil, fmt.Errorf("certain dataset needs points or csv")
	}
	pts := make([]geom.Point, len(req.Points))
	for i, p := range req.Points {
		pts[i] = geom.Point(p)
	}
	return pts, nil
}

func sampleObjects(req *DatasetRequest) ([]*uncertain.Object, error) {
	if req.CSV != "" {
		ds, err := dataset.LoadUncertainCSV(strings.NewReader(req.CSV))
		if err != nil {
			return nil, err
		}
		return ds.Objects, nil
	}
	if len(req.Objects) == 0 {
		return nil, fmt.Errorf("sample dataset needs objects or csv")
	}
	objs := make([]*uncertain.Object, len(req.Objects))
	for i, spec := range req.Objects {
		samples := make([]uncertain.Sample, len(spec.Samples))
		for j, s := range spec.Samples {
			samples[j] = uncertain.Sample{Loc: geom.Point(s.Loc), P: s.P}
		}
		objs[i] = uncertain.New(i, samples)
	}
	return objs, nil
}

func pdfObjects(req *DatasetRequest) ([]*uncertain.PDFObject, error) {
	if req.CSV != "" {
		return nil, fmt.Errorf("pdf datasets have no csv format; use pdfObjects")
	}
	if len(req.PDFObjects) == 0 {
		return nil, fmt.Errorf("pdf dataset needs pdfObjects")
	}
	objs := make([]*uncertain.PDFObject, len(req.PDFObjects))
	for i, spec := range req.PDFObjects {
		if len(spec.Min) == 0 || len(spec.Min) != len(spec.Max) {
			return nil, fmt.Errorf("pdf object %d: min/max must be equal-length and non-empty", i)
		}
		region := geom.NewRect(geom.Point(spec.Min), geom.Point(spec.Max))
		switch spec.Kind {
		case "uniform", "":
			objs[i] = crsky.NewUniformPDFObject(i, region)
		case "gaussian":
			objs[i] = crsky.NewGaussianPDFObject(i, region, geom.Point(spec.Mean), geom.Point(spec.Sigma))
		default:
			return nil, fmt.Errorf("pdf object %d: unknown kind %q (want uniform or gaussian)", i, spec.Kind)
		}
	}
	return objs, nil
}
