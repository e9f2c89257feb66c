package server

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	crsky "github.com/crsky/crsky"
	"github.com/crsky/crsky/internal/causality"
	"github.com/crsky/crsky/internal/stats"
	"github.com/crsky/crsky/internal/store"
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

// register decodes, builds, warms, and installs the dataset described by
// req, replacing any same-named predecessor. With a store attached the
// dataset is made durable FIRST: a registration is acknowledged only after
// its WAL append, so an acknowledged dataset survives a crash.
func (r *registry) register(req *DatasetRequest) (*entry, error) {
	name := strings.TrimSpace(req.Name)
	if name == "" {
		return nil, fmt.Errorf("dataset name is required")
	}
	in, err := decodeDataset(req.Model, req, nil)
	if err != nil {
		return nil, err
	}
	e, err := r.build(name, in)
	if err != nil {
		return nil, err
	}
	r.regMu.Lock()
	defer r.regMu.Unlock()
	if r.st != nil {
		var payload bytes.Buffer
		if err := in.save(&payload); err != nil {
			return nil, err
		}
		if err := r.st.Put(name, in.model, payload.Bytes()); err != nil {
			return nil, fmt.Errorf("durable write failed, dataset not registered: %w", err)
		}
	}
	r.install(e)
	return e, nil
}

// installStored rebuilds and installs one recovered dataset without
// re-writing it — the startup path over the store's recovered state.
func (r *registry) installStored(d store.Dataset) error {
	in, err := decodeDataset(d.Model, nil, d.Data)
	if err != nil {
		return err
	}
	e, err := r.build(d.Name, in)
	if err != nil {
		return err
	}
	// Replay the recovered mutation log over the rebuilt base through the
	// function the live endpoints apply, so recovery reconverges to the
	// exact pre-crash engine (IDs, tombstones, and all).
	if err := applyStoredMutations(e, d.Muts); err != nil {
		return err
	}
	r.install(e)
	return nil
}

// build is the build step registration and recovery share: it builds and
// warms the engine of one decoded dataset, wrapped when fault injection is
// on.
func (r *registry) build(name string, in *engineInput) (*entry, error) {
	eng, err := in.build()
	if err != nil {
		return nil, err
	}
	eng.Warm()
	e := &entry{name: name, model: in.model, size: eng.Len(), dims: eng.Dims(), eng: eng, accesses: new(stats.Counter)}
	if r.wrap != nil {
		e.eng = r.wrap(eng)
	}
	return e, nil
}

// install publishes e under a fresh generation, replacing any same-named
// entry — the install step of registration, recovery and every mutation.
func (r *registry) install(e *entry) {
	e.gen = r.gen.Add(1)
	r.mu.Lock()
	r.m[e.name] = e
	r.mu.Unlock()
}
