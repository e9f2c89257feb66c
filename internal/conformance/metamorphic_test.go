package conformance

import (
	"context"
	"math/rand"
	"testing"

	crsky "github.com/crsky/crsky"
	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/uncertain"
)

// scalePoint returns p with every coordinate multiplied by f. Powers of two
// scale IEEE floats exactly, so with f = 4 every dominance comparison and
// probability in the pipeline reproduces bit-for-bit.
func scalePoint(p geom.Point, f float64) geom.Point {
	out := make(geom.Point, len(p))
	for i, v := range p {
		out[i] = v * f
	}
	return out
}

func scaleObject(o *uncertain.Object, f float64) *uncertain.Object {
	samples := make([]uncertain.Sample, len(o.Samples))
	for i, s := range o.Samples {
		samples[i] = uncertain.Sample{Loc: scalePoint(s.Loc, f), P: s.P}
	}
	return uncertain.New(o.ID, samples)
}

// TestMetamorphicUniformScaling: scaling every coordinate and the query by a
// power of two must not change any engine's answer set.
func TestMetamorphicUniformScaling(t *testing.T) {
	const f = 4
	forEachCaseSeed(t, 11_000, 12, func(t *testing.T, seed int64) {
		w := newSampleWorkload(t, seed)
		eng, err := crsky.NewEngine(w.ds.Objects)
		if err != nil {
			t.Errorf("%v: %v", w, err)
			return
		}
		scaled := make([]*uncertain.Object, w.ds.Len())
		for i, o := range w.ds.Objects {
			scaled[i] = scaleObject(o, f)
		}
		sEng, err := crsky.NewEngine(scaled)
		if err != nil {
			t.Errorf("%v: %v", w, err)
			return
		}
		for _, q := range w.qs {
			for _, alpha := range w.alphas {
				want := query(t, eng, q, alpha, crsky.QueryOptions{})
				got := query(t, sEng, scalePoint(q, f), alpha, crsky.QueryOptions{})
				if !equalIDs(got, want) {
					t.Errorf("%v q=%v alpha=%g: scaled answers %v, original %v", w, q, alpha, got, want)
					return
				}
			}
		}
	})
}

// TestMetamorphicUniformScalingPDF is the continuous-model variant: regions,
// Gaussian parameters, and the query all scale together.
func TestMetamorphicUniformScalingPDF(t *testing.T) {
	const f = 4
	forEachCaseSeed(t, 12_000, 8, func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		cfg := families[rng.Intn(len(families))](30+rng.Intn(40), 2, 10, 100+800*rng.Float64(), rng.Int63())
		kind := []uncertain.PDFKind{uncertain.Uniform, uncertain.Gaussian}[rng.Intn(2)]
		objs, err := dataset.GenerateUncertainPDF(cfg, kind)
		if err != nil {
			t.Errorf("seed=%d: %v", seed, err)
			return
		}
		scaled := make([]*uncertain.PDFObject, len(objs))
		for i, o := range objs {
			s := &uncertain.PDFObject{
				ID:     o.ID,
				Region: geom.NewRect(scalePoint(o.Region.Min, f), scalePoint(o.Region.Max, f)),
				Kind:   o.Kind,
			}
			if o.Mean != nil {
				s.Mean = scalePoint(o.Mean, f)
			}
			if o.Sigma != nil {
				s.Sigma = scalePoint(o.Sigma, f)
			}
			scaled[i] = s
		}
		eng, err := crsky.NewPDFEngine(objs)
		if err != nil {
			t.Errorf("seed=%d: %v", seed, err)
			return
		}
		sEng, err := crsky.NewPDFEngine(scaled)
		if err != nil {
			t.Errorf("seed=%d: %v", seed, err)
			return
		}
		dom := cfg.EffectiveDomain()
		q := geom.Point{dom * (0.2 + 0.6*rng.Float64()), dom * (0.2 + 0.6*rng.Float64())}
		for _, alpha := range []float64{0.3, 0.8, 1} {
			want := query(t, eng, q, alpha, crsky.QueryOptions{QuadNodes: 4})
			got := query(t, sEng, scalePoint(q, f), alpha, crsky.QueryOptions{QuadNodes: 4})
			if !equalIDs(got, want) {
				t.Errorf("seed=%d kind=%v alpha=%g: scaled answers %v, original %v", seed, kind, alpha, got, want)
				return
			}
		}
	})
}

// TestMetamorphicPermutation: permuting insertion order (and relabeling IDs
// positionally) must map the answer set through the same permutation — the
// R-tree shape changes, the answers must not.
func TestMetamorphicPermutation(t *testing.T) {
	forEachCaseSeed(t, 13_000, 12, func(t *testing.T, seed int64) {
		w := newSampleWorkload(t, seed)
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		perm := rng.Perm(w.ds.Len()) // position i holds old object perm[i]
		permuted := make([]*uncertain.Object, w.ds.Len())
		newID := make([]int, w.ds.Len()) // old ID -> new ID
		for i, old := range perm {
			permuted[i] = uncertain.New(i, w.ds.Objects[old].Samples)
			newID[old] = i
		}
		eng, err := crsky.NewEngine(w.ds.Objects)
		if err != nil {
			t.Errorf("%v: %v", w, err)
			return
		}
		pEng, err := crsky.NewEngine(permuted)
		if err != nil {
			t.Errorf("%v: %v", w, err)
			return
		}
		for _, q := range w.qs {
			for _, alpha := range w.alphas {
				want := query(t, eng, q, alpha, crsky.QueryOptions{})
				mapped := make([]int, len(want))
				for i, id := range want {
					mapped[i] = newID[id]
				}
				got := query(t, pEng, q, alpha, crsky.QueryOptions{})
				if !equalIDs(got, sortedCopy(mapped)) {
					t.Errorf("%v q=%v alpha=%g: permuted answers %v, mapped original %v",
						w, q, alpha, got, sortedCopy(mapped))
					return
				}
			}
		}
	})
}

// TestMetamorphicDuplicateCertain: duplicating a reverse-skyline non-answer
// must not change the answer set, and the duplicate itself must be a
// non-answer. (Duplicating an answer is NOT invariant: the twin dynamically
// dominates q w.r.t. its original, expelling both — so the harness picks
// non-answers.)
func TestMetamorphicDuplicateCertain(t *testing.T) {
	forEachCaseSeed(t, 14_000, 12, func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		cfg := dataset.CertainConfig{
			N:    30 + rng.Intn(120),
			Dims: 2 + rng.Intn(2),
			Kind: dataset.CertainKind(rng.Intn(4)),
			Seed: rng.Int63(),
		}
		ds, err := dataset.GenerateCertain(cfg)
		if err != nil {
			t.Errorf("seed=%d: %v", seed, err)
			return
		}
		eng, err := crsky.NewCertainEngine(ds.Points)
		if err != nil {
			t.Errorf("seed=%d: %v", seed, err)
			return
		}
		q := make(geom.Point, cfg.Dims)
		for j := range q {
			q[j] = 10000 * (0.2 + 0.6*rng.Float64())
		}
		want := bruteReverseSkyline(eng, q)
		inAnswer := make(map[int]bool, len(want))
		for _, id := range want {
			inAnswer[id] = true
		}
		nonAnswer := -1
		for i := range ds.Points {
			if !inAnswer[i] {
				nonAnswer = i
				break
			}
		}
		if nonAnswer < 0 {
			return // every point answers; nothing to duplicate soundly
		}
		dup := append(append([]geom.Point{}, ds.Points...), ds.Points[nonAnswer].Clone())
		dEng, err := crsky.NewCertainEngine(dup)
		if err != nil {
			t.Errorf("seed=%d: %v", seed, err)
			return
		}
		got := query(t, dEng, q, 1, crsky.QueryOptions{})
		if !equalIDs(got, want) {
			t.Errorf("seed=%d q=%v: duplicating non-answer %d changed answers: %v -> %v",
				seed, q, nonAnswer, want, got)
			return
		}
		if pr, _, err := dEng.ProbCtx(context.Background(), len(dup)-1, q, crsky.QueryOptions{}); err != nil || pr != 0 {
			t.Errorf("seed=%d q=%v: duplicate of non-answer %d: Pr = %v (err %v), want 0", seed, q, nonAnswer, pr, err)
		}
	})
}

// TestMetamorphicDuplicateSample pins the probabilistic duplication laws:
// adding a duplicate multiplies every other object's Eq.-2 terms by extra
// factors ≤ 1, so the answer set restricted to the original objects may
// only shrink, and the twin's membership must equal its original's (their
// probabilities are symmetric).
func TestMetamorphicDuplicateSample(t *testing.T) {
	forEachCaseSeed(t, 15_000, 12, func(t *testing.T, seed int64) {
		w := newSampleWorkload(t, seed)
		rng := rand.New(rand.NewSource(seed ^ 0xd0b))
		dupOf := rng.Intn(w.ds.Len())
		objs := make([]*uncertain.Object, 0, w.ds.Len()+1)
		objs = append(objs, w.ds.Objects...)
		objs = append(objs, uncertain.New(w.ds.Len(), w.ds.Objects[dupOf].Samples))
		eng, err := crsky.NewEngine(w.ds.Objects)
		if err != nil {
			t.Errorf("%v: %v", w, err)
			return
		}
		dEng, err := crsky.NewEngine(objs)
		if err != nil {
			t.Errorf("%v: %v", w, err)
			return
		}
		twin := w.ds.Len()
		for _, q := range w.qs {
			for _, alpha := range w.alphas {
				before := query(t, eng, q, alpha, crsky.QueryOptions{})
				after := query(t, dEng, q, alpha, crsky.QueryOptions{})
				inBefore := make(map[int]bool, len(before))
				for _, id := range before {
					inBefore[id] = true
				}
				twinIn, origIn := false, false
				for _, id := range after {
					if id == twin {
						twinIn = true
						continue
					}
					if id == dupOf {
						origIn = true
					}
					if !inBefore[id] {
						t.Errorf("%v q=%v alpha=%g: duplicate of %d promoted %d into the answers",
							w, q, alpha, dupOf, id)
						return
					}
				}
				if twinIn != origIn {
					t.Errorf("%v q=%v alpha=%g: twin membership %v, original %v",
						w, q, alpha, twinIn, origIn)
					return
				}
			}
		}
	})
}
