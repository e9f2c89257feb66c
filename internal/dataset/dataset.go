// Package dataset provides the data layer of the reproduction: in-memory
// certain and uncertain dataset containers with R-tree indexing, the
// synthetic workload generators of Section 5.1 (lUrU/lUrG/lSrU/lSrG and
// Independent/Correlated/Clustered/Anti-correlated), seeded stand-ins for
// the paper's real datasets (NBA, CarDB), and CSV/gob persistence.
package dataset

import (
	"fmt"

	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/prob"
	"github.com/crsky/crsky/internal/rtree"
	"github.com/crsky/crsky/internal/uncertain"
)

// Uncertain is an uncertain dataset: discrete-sample objects whose IDs equal
// their slice positions (validated), optionally indexed by an R-tree over
// object MBRs.
type Uncertain struct {
	Objects []*uncertain.Object
	tree    *rtree.Tree
	wsums   []float64
	sums    []Summary
	// dims pins the dimensionality on datasets that may hold tombstones
	// (nil Objects slots left by WithDelete); 0 = derive from the first
	// live object.
	dims int
}

// NewUncertain validates the objects and wraps them in a dataset. Object
// IDs must equal their slice indexes so that R-tree entry IDs map back to
// objects in O(1).
func NewUncertain(objs []*uncertain.Object) (*Uncertain, error) {
	if len(objs) == 0 {
		return nil, fmt.Errorf("dataset: no objects")
	}
	d := objs[0].Dims()
	for i, o := range objs {
		if o.ID != i {
			return nil, fmt.Errorf("dataset: object at index %d has ID %d", i, o.ID)
		}
		if err := o.Validate(); err != nil {
			return nil, fmt.Errorf("dataset: %w", err)
		}
		if o.Dims() != d {
			return nil, fmt.Errorf("dataset: object %d has %d dims, want %d", i, o.Dims(), d)
		}
	}
	return &Uncertain{Objects: objs}, nil
}

// MustUncertain is NewUncertain for known-good (generated) data.
func MustUncertain(objs []*uncertain.Object) *Uncertain {
	ds, err := NewUncertain(objs)
	if err != nil {
		panic(err)
	}
	return ds
}

// Len returns the number of objects.
func (ds *Uncertain) Len() int { return len(ds.Objects) }

// Dims returns the dataset dimensionality.
func (ds *Uncertain) Dims() int {
	if ds.dims > 0 {
		return ds.dims
	}
	for _, o := range ds.Objects {
		if o != nil {
			return o.Dims()
		}
	}
	return 0
}

// Tree returns the R-tree over object MBRs, bulk-loading it on first use
// with the paper's default page size. Tombstone slots (nil objects) are
// not indexed, so tree-driven query enumeration skips them automatically.
func (ds *Uncertain) Tree(opts ...rtree.Option) *rtree.Tree {
	if ds.tree == nil {
		items := make([]rtree.Item, 0, len(ds.Objects))
		for i, o := range ds.Objects {
			if o == nil {
				continue
			}
			items = append(items, rtree.Item{Rect: o.MBR(), ID: i})
		}
		t := rtree.New(ds.Dims(), opts...)
		t.BulkLoad(items)
		ds.tree = t
	}
	return ds.tree
}

// WeightSums returns each object's snapped total sample weight (usually
// exactly 1; validation tolerates small deviations), computed on first use
// and cached — like Tree, callers sharing a dataset across goroutines
// should force the build once (Engine.Warm does) before concurrent reads.
func (ds *Uncertain) WeightSums() []float64 {
	if ds.wsums == nil {
		wsums := make([]float64, len(ds.Objects))
		for i, o := range ds.Objects {
			if o == nil {
				continue // tombstone: zero weight, never reached via the tree
			}
			var sum float64
			for _, s := range o.Samples {
				sum += s.P
			}
			wsums[i] = prob.Snap(sum)
		}
		ds.wsums = wsums
	}
	return ds.wsums
}

// Summary is the second-level filter geometry of one uncertain object: its
// samples grouped by sub-quadrant of the MBR center (on the first
// summarySplitDims dimensions), each group carrying the exact MBR of its
// samples and their raw — deliberately unsnapped — probability mass. A
// group's rectangle lying strictly inside a dominance rectangle proves that
// at least Weights[k] of the object's mass dominates there; a group not
// intersecting an (outward-padded) dominance window proves that none of its
// mass does. The second-tier query bounds are built from exactly these two
// implications.
type Summary struct {
	Rects   []geom.Rect
	Weights []float64
}

// summarySplitDims caps the quadrant split so a summary never exceeds
// 2^summarySplitDims groups regardless of dimensionality.
const summarySplitDims = 3

// Summaries returns the per-object second-level summaries, computed on first
// use and cached — like Tree and WeightSums, callers sharing a dataset across
// goroutines should force the build once (Engine.Warm does) before
// concurrent reads.
func (ds *Uncertain) Summaries() []Summary {
	if ds.sums == nil {
		sums := make([]Summary, len(ds.Objects))
		for i, o := range ds.Objects {
			if o == nil {
				continue // tombstone: empty summary, never reached via the tree
			}
			sums[i] = summarize(o)
		}
		ds.sums = sums
	}
	return ds.sums
}

func summarize(o *uncertain.Object) Summary {
	if len(o.Samples) == 1 {
		return Summary{
			Rects:   []geom.Rect{geom.PointRect(o.Samples[0].Loc)},
			Weights: []float64{o.Samples[0].P},
		}
	}
	center := o.MBR().Center()
	d := len(center)
	if d > summarySplitDims {
		d = summarySplitDims
	}
	var s Summary
	var slots [1 << summarySplitDims]int
	for i := range slots {
		slots[i] = -1
	}
	for _, sm := range o.Samples {
		mask := 0
		for j := 0; j < d; j++ {
			if sm.Loc[j] >= center[j] {
				mask |= 1 << j
			}
		}
		k := slots[mask]
		if k < 0 {
			k = len(s.Rects)
			slots[mask] = k
			s.Rects = append(s.Rects, geom.PointRect(sm.Loc))
			s.Weights = append(s.Weights, 0)
		} else {
			s.Rects[k].ExpandToPoint(sm.Loc)
		}
		s.Weights[k] += sm.P
	}
	return s
}

// Certain is a certain dataset of plain points.
type Certain struct {
	Points []geom.Point
}

// NewCertain validates the points and wraps them in a dataset.
func NewCertain(pts []geom.Point) (*Certain, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("dataset: no points")
	}
	d := pts[0].Dims()
	if d == 0 {
		return nil, fmt.Errorf("dataset: zero-dimensional points")
	}
	for i, p := range pts {
		if p.Dims() != d {
			return nil, fmt.Errorf("dataset: point %d has %d dims, want %d", i, p.Dims(), d)
		}
		if !p.IsFinite() {
			return nil, fmt.Errorf("dataset: point %d has non-finite coordinates", i)
		}
	}
	return &Certain{Points: pts}, nil
}

// MustCertain is NewCertain for known-good (generated) data.
func MustCertain(pts []geom.Point) *Certain {
	ds, err := NewCertain(pts)
	if err != nil {
		panic(err)
	}
	return ds
}

// Len returns the number of points.
func (ds *Certain) Len() int { return len(ds.Points) }

// Dims returns the dataset dimensionality.
func (ds *Certain) Dims() int { return ds.Points[0].Dims() }

// AsUncertain converts the certain dataset into the degenerate uncertain
// form (one sample, probability 1 — Section 4's reduction).
func (ds *Certain) AsUncertain() *Uncertain {
	objs := make([]*uncertain.Object, len(ds.Points))
	for i, p := range ds.Points {
		objs[i] = uncertain.Certain(i, p)
	}
	return &Uncertain{Objects: objs}
}
