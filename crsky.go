// Package crsky explains why objects are missing from (probabilistic)
// reverse skyline query results. It is a from-scratch Go implementation of
//
//	Gao, Liu, Chen, Zhou, Zheng: "Finding Causality and Responsibility for
//	Probabilistic Reverse Skyline Query Non-Answers", IEEE TKDE 28(11), 2016.
//
// Given a dataset P, a query object q, and an object an that is NOT in the
// (probabilistic) reverse skyline of q, the library computes every actual
// cause of that absence together with its responsibility: an object p is an
// actual cause when some contingency set Γ ⊆ P exists such that an stays a
// non-answer on P−Γ but becomes an answer on P−Γ−{p}; its responsibility is
// 1/(1+|Γ|) for a minimum such Γ.
//
// Three engines cover the paper's three data models:
//
//   - Engine — uncertain data under the discrete sample model (algorithm
//     CP, Section 3);
//   - PDFEngine — uncertain data under the continuous pdf model
//     (Section 3.2);
//   - CertainEngine — certain data under plain reverse skyline semantics
//     (algorithm CR, Section 4).
//
// All engines index their data with an R*-tree (4096-byte pages by default)
// and report the simulated I/O of each call with its result —
// QueryStats.NodeAccesses for queries, FilterNodeAccesses on explanations
// and repairs — matching the paper's evaluation metric.
package crsky

import (
	"github.com/crsky/crsky/internal/causality"
	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/prsq"
	"github.com/crsky/crsky/internal/skyline"
	"github.com/crsky/crsky/internal/uncertain"
)

// Core vocabulary, re-exported so that applications need only this package.
type (
	// Point is a D-dimensional point.
	Point = geom.Point
	// Rect is an axis-aligned hyper-rectangle.
	Rect = geom.Rect
	// Sample is one possible position of an uncertain object with its
	// appearance probability.
	Sample = uncertain.Sample
	// Object is a discrete-sample uncertain object.
	Object = uncertain.Object
	// PDFObject is a continuous-model uncertain object (uniform or
	// truncated-Gaussian density over a rectangular region).
	PDFObject = uncertain.PDFObject
	// Cause is one actual cause with its responsibility and a minimum
	// contingency set.
	Cause = causality.Cause
	// Explanation is the full causality-and-responsibility result for one
	// non-answer.
	Explanation = causality.Result
	// Options tunes the refinement stage of the explanation algorithms.
	Options = causality.Options
	// QueryOptions tunes the index-accelerated probabilistic reverse
	// skyline query path (bound pruning, pdf quadrature resolution).
	QueryOptions = prsq.Options
	// QueryStats reports how an accelerated query was answered: how many
	// objects the bounds decided and how many needed exact evaluation.
	QueryStats = prsq.Stats
)

// Errors re-exported from the causality engine.
var (
	ErrNotNonAnswer      = causality.ErrNotNonAnswer
	ErrTooManyCandidates = causality.ErrTooManyCandidates
	ErrSubsetBudget      = causality.ErrSubsetBudget
	ErrBadObject         = causality.ErrBadObject
)

// NewUniformObject builds an uncertain object whose samples are equally
// probable — the convention of the paper's running examples.
func NewUniformObject(id int, locations []Point) *Object {
	return uncertain.NewUniform(id, locations)
}

// NewCertainObject builds the degenerate single-sample object.
func NewCertainObject(id int, loc Point) *Object {
	return uncertain.Certain(id, loc)
}

// NewUniformPDFObject builds a uniform-density continuous object.
func NewUniformPDFObject(id int, region Rect) *PDFObject {
	return uncertain.NewUniformPDF(id, region)
}

// NewGaussianPDFObject builds a truncated-Gaussian continuous object; nil
// mean/sigma select the defaults (region center, quarter side).
func NewGaussianPDFObject(id int, region Rect, mean, sigma Point) *PDFObject {
	return uncertain.NewGaussianPDF(id, region, mean, sigma)
}

// Engine answers and explains probabilistic reverse skyline queries over a
// discrete-sample uncertain dataset. Objects must be numbered 0..n-1.
type Engine struct {
	ds *dataset.Uncertain
}

// NewEngine validates the objects and builds the engine. The R-tree index
// is built lazily on first query.
func NewEngine(objects []*Object) (*Engine, error) {
	ds, err := dataset.NewUncertain(objects)
	if err != nil {
		return nil, err
	}
	return &Engine{ds: ds}, nil
}

// Len returns the number of objects.
func (e *Engine) Len() int { return e.ds.Len() }

// Dims returns the dataset dimensionality.
func (e *Engine) Dims() int { return e.ds.Dims() }

// Object returns the object with the given ID.
func (e *Engine) Object(id int) *Object { return e.ds.Objects[id] }

// Repair is a minimal intervention turning a non-answer into an answer.
type Repair = causality.Repair

// CertainEngine answers and explains (certain) reverse skyline queries.
type CertainEngine struct {
	ix *skyline.Index
}

// NewCertainEngine validates the points and builds the engine with a
// bulk-loaded R-tree.
func NewCertainEngine(points []Point) (*CertainEngine, error) {
	ds, err := dataset.NewCertain(points)
	if err != nil {
		return nil, err
	}
	return &CertainEngine{ix: skyline.NewIndex(ds.Points)}, nil
}

// Len returns the number of points.
func (e *CertainEngine) Len() int { return e.ix.Len() }

// Dims returns the dataset dimensionality.
func (e *CertainEngine) Dims() int { return e.ix.Dims() }

// Point returns the point at the given index.
func (e *CertainEngine) Point(i int) Point { return e.ix.Point(i) }

// Deleted reports whether index i is a tombstone.
func (e *CertainEngine) Deleted(i int) bool { return e.ix.Deleted(i) }

// PDFEngine answers and explains probabilistic reverse skyline queries over
// continuous-model uncertain data (Section 3.2).
type PDFEngine struct {
	set *causality.PDFSet
}

// NewPDFEngine validates the objects and builds the engine.
func NewPDFEngine(objects []*PDFObject) (*PDFEngine, error) {
	set, err := causality.NewPDFSet(objects)
	if err != nil {
		return nil, err
	}
	return &PDFEngine{set: set}, nil
}

// Len returns the number of objects.
func (e *PDFEngine) Len() int { return e.set.Len() }

// Dims returns the dataset dimensionality.
func (e *PDFEngine) Dims() int { return e.set.Dims() }

// Object returns the pdf object with the given ID.
func (e *PDFEngine) Object(id int) *PDFObject { return e.set.Objects[id] }
