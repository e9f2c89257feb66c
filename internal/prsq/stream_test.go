package prsq

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/prob"
	"github.com/crsky/crsky/internal/rtree"
	"github.com/crsky/crsky/internal/uncertain"
)

// coreBytes hands out fuzz bytes one at a time, zero once exhausted.
type coreBytes []byte

func (b *coreBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// coreScales sets the coordinate magnitude of one case, up to 1e9.
var coreScales = []float64{1, 7, 1e-6, 1e3, 1e9}

// checkMBRCore decodes one case — a 1–4-d object of 1–6 samples with
// duplicate coordinates, a query point equal to a sample coordinate, on the
// MBR boundary, just outside it or anywhere, and a candidate box whose
// sides sit on, next to, inside or outside the bounds of the samples'
// common dominance rectangle — and asserts that insideMBRCore accepts the
// box exactly when it lies strictly inside geom.DomRect(s, q) for every
// sample s. It then takes a leaf box around the object's MBR, grown outward
// on each side by nothing, one ulp or a decoded amount (a parent box may be
// larger than its children), and asserts that a box strictly inside the
// leaf's core (streamState.leafCore) lies strictly inside the MBR core of
// every member: the MBR and each sample's point box. It reports whether
// the box was inside the object's core and whether it was inside the
// leaf's.
func checkMBRCore(t *testing.T, raw []byte) (inside, inLeaf bool) {
	t.Helper()
	b := coreBytes(raw)
	d := 1 + b.next()%4
	l := 1 + b.next()%6
	scale := coreScales[b.next()%len(coreScales)]
	coord := func() float64 {
		return float64(int16(b.next()<<8|b.next())) / 32768 * scale
	}

	o := &uncertain.Object{Samples: make([]uncertain.Sample, l)}
	for i := range o.Samples {
		loc := make(geom.Point, d)
		for j := range loc {
			if i > 0 && b.next()%3 == 0 {
				loc[j] = o.Samples[b.next()%i].Loc[j] // duplicate coordinate
			} else {
				loc[j] = coord()
			}
		}
		o.Samples[i] = uncertain.Sample{Loc: loc, P: 1 / float64(l)}
	}
	mbr := o.MBR()

	q := make(geom.Point, d)
	for j := range q {
		switch b.next() % 6 {
		case 0:
			q[j] = coord()
		case 1:
			q[j] = o.Samples[b.next()%l].Loc[j]
		case 2:
			q[j] = mbr.Min[j]
		case 3:
			q[j] = mbr.Max[j]
		case 4:
			q[j] = math.Nextafter(mbr.Min[j], math.Inf(-1))
		default:
			q[j] = math.Nextafter(mbr.Max[j], math.Inf(1))
		}
	}

	// The samples' common dominance rectangle, from geom.DomRect alone.
	rects := make([]geom.Rect, l)
	for i, s := range o.Samples {
		rects[i] = geom.DomRect(s.Loc, q)
	}
	c := geom.Rect{Min: make(geom.Point, d), Max: make(geom.Point, d)}
	for j := 0; j < d; j++ {
		lo, hi := math.Inf(-1), math.Inf(1)
		for _, r := range rects {
			lo, hi = math.Max(lo, r.Min[j]), math.Min(hi, r.Max[j])
		}
		pick := func() float64 {
			switch b.next() % 8 {
			case 0:
				return lo
			case 1:
				return hi
			case 2:
				return math.Nextafter(lo, math.Inf(1))
			case 3:
				return math.Nextafter(hi, math.Inf(-1))
			case 4:
				return lo + (hi-lo)/2
			case 5:
				return math.Nextafter(lo, math.Inf(-1))
			case 6:
				return math.Nextafter(hi, math.Inf(1))
			default:
				return coord()
			}
		}
		x, y := pick(), pick()
		c.Min[j], c.Max[j] = math.Min(x, y), math.Max(x, y)
	}

	want := true
	for i := range rects {
		if !strictlyInside(&c, &rects[i]) {
			want = false
			break
		}
	}
	if got := insideMBRCore(c, mbr, q); got != want {
		t.Fatalf("candidate %v, samples %v, q %v: insideMBRCore = %v, strictly inside every DomRect = %v",
			c, o.Samples, q, got, want)
	}

	leaf := mbr.Clone()
	grow := func(x, dir float64) float64 {
		switch b.next() % 3 {
		case 1:
			return math.Nextafter(x, dir)
		case 2:
			return x + math.Copysign(float64(b.next())/255*scale, dir)
		}
		return x
	}
	for j := 0; j < d; j++ {
		leaf.Min[j] = grow(leaf.Min[j], math.Inf(-1))
		leaf.Max[j] = grow(leaf.Max[j], math.Inf(1))
	}
	st := &streamState{q: q, alpha: 0.5, certain: func(int) bool { return true }}
	core := geom.Rect{Min: make(geom.Point, d), Max: make(geom.Point, d)}
	if st.leafCore(leaf, core) == nil || !strictlyInside(&c, &core) {
		return want, false
	}
	members := []geom.Rect{mbr}
	for _, s := range o.Samples {
		members = append(members, geom.PointRect(s.Loc))
	}
	for _, m := range members {
		if !insideMBRCore(c, m, q) {
			t.Fatalf("candidate %v inside leaf %v's core %v (q %v) but not inside member %v's MBR core",
				c, leaf, core, q, m)
		}
	}
	return want, true
}

// FuzzMBRCore checks the lemmas the stream's first-pair reject and the
// join's whole-leaf reject rest on: the MBR core is exactly the
// intersection of the samples' dominance rectangles under strict
// containment, and a leaf box's core lies inside every member's MBR core
// (see checkMBRCore).
func FuzzMBRCore(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 0})
	f.Add([]byte{1, 3, 4, 10, 0, 20, 0, 7, 30, 0, 0, 40, 0, 2, 3, 4, 2, 3})
	f.Add([]byte{3, 5, 4, 255, 255, 128, 0, 1, 0, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{2, 2, 2, 9, 9, 9, 9, 9, 9, 1, 0, 5, 5, 5, 2, 4, 3, 3, 2})
	f.Fuzz(func(t *testing.T, raw []byte) { checkMBRCore(t, raw) })
}

// TestMBRCoreMatchesDomRects runs the FuzzMBRCore check on random byte
// strings, so every test run covers far more than the seed corpus.
func TestMBRCoreMatchesDomRects(t *testing.T) {
	r := rand.New(rand.NewSource(197))
	raw := make([]byte, 96)
	const trials = 50_000
	accepted, inLeaf := 0, 0
	for trial := 0; trial < trials; trial++ {
		r.Read(raw)
		inside, leaf := checkMBRCore(t, raw)
		if inside {
			accepted++
		}
		if leaf {
			inLeaf++
		}
	}
	// Both verdicts must be exercised, not only the common rejection, and
	// the leaf-core implication must be reached.
	if accepted < trials/100 || accepted > trials-trials/100 || inLeaf < trials/1000 {
		t.Fatalf("%d of %d boxes inside the core, %d inside a leaf core: the cases do not exercise both verdicts",
			accepted, trials, inLeaf)
	}
	t.Logf("%d of %d boxes inside the core, %d inside a leaf core", accepted, trials, inLeaf)
}

// TestStreamRectsMatchDomRect: the stream state's flat per-sample
// rectangles and the join's in-place window must reproduce geom.DomRect,
// DomRectOuter and DomRectUnionOuter bit for bit, across
// dimensionalities, sample counts, grid ties, and scratch reused by
// objects of every size in turn.
func TestStreamRectsMatchDomRect(t *testing.T) {
	r := rand.New(rand.NewSource(193))
	same := func(a, b geom.Rect) bool {
		for j := range a.Min {
			if math.Float64bits(a.Min[j]) != math.Float64bits(b.Min[j]) ||
				math.Float64bits(a.Max[j]) != math.Float64bits(b.Max[j]) {
				return false
			}
		}
		return true
	}
	for d := 1; d <= 4; d++ {
		objs := make([]*uncertain.Object, 300)
		for id := range objs {
			o := &uncertain.Object{ID: id, Samples: make([]uncertain.Sample, 1+r.Intn(8))}
			grid := r.Intn(3) == 0 // grid-snapped coordinates force ties with q
			for i := range o.Samples {
				loc := make(geom.Point, d)
				for j := range loc {
					loc[j] = r.Float64() * 100
					if grid {
						loc[j] = float64(int(loc[j]/10) * 10)
					}
				}
				o.Samples[i] = uncertain.Sample{Loc: loc, P: 1 / float64(len(o.Samples))}
			}
			objs[id] = o
		}
		q := make(geom.Point, d)
		for j := range q {
			q[j] = float64(int(r.Float64() * 10 * 10))
		}
		st := &streamState{ds: &dataset.Uncertain{Objects: objs}, q: q, alpha: 0.5}
		win := geom.Rect{Min: make(geom.Point, d), Max: make(geom.Point, d)}
		for trial := 0; trial < 1000; trial++ {
			id := r.Intn(len(objs))
			o := objs[id]
			mbr := o.MBR()
			st.begin(id, mbr)
			st.build()
			for i, s := range o.Samples {
				if got, want := sampleRect(st.inner, i, d), geom.DomRect(s.Loc, q); !same(got, want) {
					t.Fatalf("d=%d object %d sample %d: flat inner %v, DomRect %v", d, id, i, got, want)
				}
				if got, want := sampleRect(st.outer, i, d), geom.DomRectOuter(s.Loc, q); !same(got, want) {
					t.Fatalf("d=%d object %d sample %d: flat outer %v, DomRectOuter %v", d, id, i, got, want)
				}
			}
			domWindow(q)(win, mbr)
			if want := geom.DomRectUnionOuter(mbr, q); !same(win, want) {
				t.Fatalf("d=%d object %d: in-place window %v, DomRectUnionOuter %v", d, id, win, want)
			}
		}
	}
}

// TestQueryAllocs is the join stage's allocation gate: a one-point sample
// query at n=2 000 (lUrU, 3-d, r∈[0,5]) allocates per query, not per
// object.
func TestQueryAllocs(t *testing.T) {
	ds, err := dataset.GenerateUncertain(dataset.LUrU(2000, 3, 0, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	ds.Tree()
	ds.WeightSums()
	ds.Summaries()
	ctx := context.Background()
	qs := []geom.Point{{5000, 5000, 5000}}
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := QueryBatchStreamStatsCtx(ctx, ds, qs, 0.5, Options{}, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 1000 {
		t.Fatalf("one query over %d objects made %.0f allocations, want < 1000", ds.Len(), allocs)
	}
	t.Logf("%.0f allocations per query over %d objects", allocs, ds.Len())
}

// leafRejectDataset is a 2-d lUrU dataset indexed by a fanout-8 tree, so
// that many leaves lie on one side of q on every axis. With cow the second
// half of the objects arrives by copy-on-write inserts (a dynamically
// grown tree) and object 7 is then deleted (a tombstone). Every object
// whose ID is not a multiple of offUnit has its sample weights scaled to
// sum just below one: it may not exist, so it must never cover a leaf
// (offUnit 0 keeps every weight; 1 makes every object off-unit).
func leafRejectDataset(t *testing.T, cow bool, offUnit int) *dataset.Uncertain {
	t.Helper()
	gen, err := dataset.GenerateUncertain(dataset.LUrU(600, 2, 0, 60, 11))
	if err != nil {
		t.Fatal(err)
	}
	objs := gen.Objects
	if offUnit > 0 {
		for id, o := range objs {
			if id%offUnit == 0 && offUnit > 1 {
				continue
			}
			samples := make([]uncertain.Sample, len(o.Samples))
			for i, s := range o.Samples {
				samples[i] = uncertain.Sample{Loc: s.Loc, P: s.P * (1 - 5e-7)}
			}
			objs[id] = uncertain.New(id, samples)
		}
	}
	base := objs
	if cow {
		base = objs[:len(objs)/2]
	}
	ds, err := dataset.NewUncertain(base)
	if err != nil {
		t.Fatal(err)
	}
	ds.Tree(rtree.WithMaxEntries(8))
	if !cow {
		return ds
	}
	for _, o := range objs[len(base):] {
		if ds, err = ds.WithInsert(o); err != nil {
			t.Fatal(err)
		}
	}
	if ds, err = ds.WithDelete(7); err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestWholeLeafReject holds the join's whole-leaf reject to the brute-force
// prob.PRSQ on fanout-8 trees, bulk-loaded and COW-built with a tombstone,
// for batches mixing query points inside, at the edge of and outside the
// data, at α from the comparison tolerance (reject off) to 1. Each batch's
// answers equal the oracle's, the Stats account for every live object, the
// reject fires (LeafRejected > 0) wherever a certain object can cover a
// leaf, and never fires when every object's weights fall short of one or
// α ≤ prob.Eps.
func TestWholeLeafReject(t *testing.T) {
	qs := []geom.Point{{5000, 5000}, {1500, 8500}, {-2000, -2000}, {12000, 4000}, {9000, 300}}
	for _, tc := range []struct {
		name    string
		cow     bool
		offUnit int
	}{
		{"bulk", false, 0},
		{"cow", true, 0},
		{"offunit-mixed", false, 3},
		{"offunit-all", true, 1},
	} {
		ds := leafRejectDataset(t, tc.cow, tc.offUnit)
		prs := make([][]float64, len(qs)) // brute-force Pr per query and object
		for k, q := range qs {
			prs[k] = make([]float64, ds.Len())
			for id, o := range ds.Objects {
				if o != nil {
					prs[k][id] = prob.PrReverseSkyline(o, q, ds.Objects)
				}
			}
		}
		for _, alpha := range []float64{prob.Eps, 1e-7, 0.5, 1} {
			label := fmt.Sprintf("%s alpha=%g", tc.name, alpha)
			got, st, err := QueryBatchStreamStatsCtx(context.Background(), ds, qs, alpha, Options{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for k := range qs {
				var want []int
				for id, o := range ds.Objects {
					if o != nil && prob.GEq(prs[k][id], alpha) {
						want = append(want, id)
					}
				}
				if !equalIDs(got[k], want) {
					t.Fatalf("%s q=%v: got %v, brute force %v", label, qs[k], got[k], want)
				}
			}
			decided := st.EmptyCandidates + st.AcceptedByBound + st.RejectedByBound +
				st.AcceptedByTier2 + st.RejectedByTier2 + st.Evaluated
			if decided != ds.Live()*len(qs) || st.LeafRejected > st.RejectedByBound {
				t.Fatalf("%s: stats decide %d of %d objects (%+v)", label, decided, ds.Live()*len(qs), st)
			}
			off := tc.offUnit == 1 || alpha <= prob.Eps
			if off != (st.LeafRejected == 0) {
				t.Fatalf("%s: %d objects rejected by a leaf cover", label, st.LeafRejected)
			}
		}
	}
}
