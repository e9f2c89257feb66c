package crsky

import (
	"fmt"

	"github.com/crsky/crsky/internal/uncertain"
)

// This file is the v2 mutation surface: copy-on-write inserts and deletes
// on all three engines. A mutation never modifies the receiver — it
// returns a NEW engine sharing index structure with the old one (R-tree
// nodes are copied only along the touched path), so any number of
// in-flight queries keep reading their pinned engine while the successor
// is built and installed. Deleted objects leave tombstone slots: their IDs
// are never reused, and inserts always take the next positional ID —
// replaying the same mutation log therefore reconverges to an identical
// engine, which is what the durable store's crash recovery relies on.

// InsertSpec describes one object insertion in model-generic form. Exactly
// one payload field must be set, matching the engine's data model.
type InsertSpec struct {
	// Point is the certain-model payload (CertainEngine).
	Point Point
	// Samples is the discrete sample-model payload (Engine). The slice is
	// adopted, not copied; callers must not mutate it afterwards.
	Samples []Sample
	// PDF is the continuous-model payload (PDFEngine). Its ID field is
	// ignored: the engine assigns the next positional ID.
	PDF *PDFObject
}

// Mutable is the v2 mutation surface. Explainer embeds it, so all three
// engines implement it and a caller holding an Explainer mutates without a
// type assertion; the named interface remains for code that asserts it.
type Mutable interface {
	// WithInsert returns a new engine with one more object, appended under
	// the next positional ID (returned). The receiver is unchanged.
	WithInsert(spec InsertSpec) (Explainer, int, error)
	// WithDelete returns a new engine with object id tombstoned: the ID
	// becomes permanently invalid (ErrBadObject), and is never reused. The
	// receiver is unchanged.
	WithDelete(id int) (Explainer, error)
}

// check validates that the spec carries exactly the payload its engine
// model needs. want names the required field for the error message.
func (s InsertSpec) check(wantPoint, wantSamples, wantPDF bool) error {
	if (s.Point != nil) != wantPoint || (s.Samples != nil) != wantSamples || (s.PDF != nil) != wantPDF {
		switch {
		case wantPoint:
			return fmt.Errorf("crsky: certain-model insert takes InsertSpec.Point alone")
		case wantSamples:
			return fmt.Errorf("crsky: sample-model insert takes InsertSpec.Samples alone")
		default:
			return fmt.Errorf("crsky: pdf-model insert takes InsertSpec.PDF alone")
		}
	}
	return nil
}

// --- Engine (discrete-sample model) -----------------------------------

// WithInsert implements Mutable: the new object is built from
// spec.Samples under the next positional ID and validated exactly as
// NewEngine validates (weights summing to one, uniform dimensionality).
func (e *Engine) WithInsert(spec InsertSpec) (Explainer, int, error) {
	if err := spec.check(false, true, false); err != nil {
		return nil, 0, err
	}
	id := e.ds.Len()
	nds, err := e.ds.WithInsert(uncertain.New(id, spec.Samples))
	if err != nil {
		return nil, 0, err
	}
	return &Engine{ds: nds}, id, nil
}

// WithDelete implements Mutable.
func (e *Engine) WithDelete(id int) (Explainer, error) {
	if id < 0 || id >= e.ds.Len() || e.ds.Objects[id] == nil {
		return nil, fmt.Errorf("%w: %d", ErrBadObject, id)
	}
	nds, err := e.ds.WithDelete(id)
	if err != nil {
		return nil, err
	}
	return &Engine{ds: nds}, nil
}

// --- CertainEngine (certain data, Section 4) --------------------------

// WithInsert implements Mutable.
func (e *CertainEngine) WithInsert(spec InsertSpec) (Explainer, int, error) {
	if err := spec.check(true, false, false); err != nil {
		return nil, 0, err
	}
	if err := checkDims(spec.Point, e.Dims()); err != nil {
		return nil, 0, err
	}
	ix := e.ix.CloneCOW()
	return &CertainEngine{ix: ix}, ix.Insert(spec.Point), nil
}

// WithDelete implements Mutable.
func (e *CertainEngine) WithDelete(id int) (Explainer, error) {
	if id < 0 || id >= e.ix.Len() || e.ix.Deleted(id) {
		return nil, fmt.Errorf("%w: %d", ErrBadObject, id)
	}
	ix := e.ix.CloneCOW()
	if err := ix.Delete(id); err != nil {
		return nil, err
	}
	return &CertainEngine{ix: ix}, nil
}

// --- PDFEngine (continuous model) --------------------------------------

// WithInsert implements Mutable. The payload object is copied with the
// next positional ID stamped in; its Region/Mean/Sigma slices are shared
// with the caller's object and must not be mutated afterwards.
func (e *PDFEngine) WithInsert(spec InsertSpec) (Explainer, int, error) {
	if err := spec.check(false, false, true); err != nil {
		return nil, 0, err
	}
	no := *spec.PDF
	no.ID = e.set.Len()
	ns, err := e.set.WithInsert(&no)
	if err != nil {
		return nil, 0, err
	}
	return &PDFEngine{set: ns}, no.ID, nil
}

// WithDelete implements Mutable.
func (e *PDFEngine) WithDelete(id int) (Explainer, error) {
	if id < 0 || id >= e.set.Len() || e.set.Objects[id] == nil {
		return nil, fmt.Errorf("%w: %d", ErrBadObject, id)
	}
	ns, err := e.set.WithDelete(id)
	if err != nil {
		return nil, err
	}
	return &PDFEngine{set: ns}, nil
}
