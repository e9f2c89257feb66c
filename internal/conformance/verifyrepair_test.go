package conformance

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"

	crsky "github.com/crsky/crsky"
	"github.com/crsky/crsky/internal/causality"
	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/prob"
	"github.com/crsky/crsky/internal/uncertain"
)

// This file closes the v2 semantics matrix for VerifyCtx and RepairCtx:
// every model behind crsky.Explainer — sample, certain, AND pdf — must
// (a) verify its own explanations, (b) reject a tampered one, and
// (c) produce repairs whose removal set provably flips the non-answer
// into the answer set under that model's own probability oracle. There
// are deliberately zero per-model carve-outs here; a model that cannot
// pass is a bug, not a documented limitation.

// tamperedCopy returns res with the first cause's responsibility broken,
// leaving the original untouched. The Definition-1 audit checks the
// responsibility formula 1/(1+|Γ|) to 1e-9, so halving it (plus an offset
// in case it was 0) must fail verification under every model.
func tamperedCopy(res *causality.Result) *causality.Result {
	bad := *res
	bad.Causes = append([]causality.Cause(nil), res.Causes...)
	bad.Causes[0].Responsibility = bad.Causes[0].Responsibility/2 + 0.001
	return &bad
}

// checkRepairFacts asserts what a minimum repair R* (an Exact RepairCtx
// result) fixes about the causes of the same non-answer, the facts the
// refiner's repair seed rests on: every cause has |Γ| >= |R*| − 1 (Γ ∪ {c}
// is itself a repair), every member of R* is a cause with responsibility
// exactly 1/|R*| (its contingency set is R* minus itself), and no
// responsibility exceeds 1/|R*|. It reports the first violation.
func checkRepairFacts(t *testing.T, context string, causes []causality.Cause, rep *causality.Repair) bool {
	t.Helper()
	k := len(rep.Removed)
	top := 1 / float64(k)
	resp := make(map[int]float64, len(causes))
	for _, c := range causes {
		resp[c.ID] = c.Responsibility
		if len(c.Contingency) < k-1 || c.Responsibility > top {
			t.Errorf("%s: cause %d has |Γ|=%d and responsibility %v; R*=%v allows |Γ| >= %d and at most %v",
				context, c.ID, len(c.Contingency), c.Responsibility, rep.Removed, k-1, top)
			return false
		}
	}
	for _, id := range rep.Removed {
		if r, ok := resp[id]; !ok || r != top {
			t.Errorf("%s: R* member %d: cause=%t, responsibility %v, want 1/|R*|=%v (R*=%v)",
				context, id, ok, r, top, rep.Removed)
			return false
		}
	}
	return true
}

// TestConformanceVerifyRepairSample runs the matrix on the discrete-sample
// engine: ExplainCtx → VerifyCtx passes, tampering fails, and RepairCtx's
// removal set lifts Pr(an) to α under the exact sample-space oracle. An
// Exact repair also holds the Definition-1 brute oracle's causes and
// ExplainCtx's to the minimum-repair facts.
func TestConformanceVerifyRepairSample(t *testing.T) {
	exact := 0
	defer func() {
		if !t.Failed() && os.Getenv(ReplaySeedEnv) == "" && exact < 5 {
			t.Errorf("only %d exact repairs with |R*| > 1 — workload drifted", exact)
		}
	}()
	forEachCaseSeed(t, 45_000, 10, func(t *testing.T, seed int64) {
		ds, q, alpha := explainWorkload(t, seed)
		eng, err := crsky.NewEngine(ds.Objects)
		if err != nil {
			t.Errorf("seed=%d: %v", seed, err)
			return
		}
		ctx := context.Background()
		checked := 0
		for an := 0; an < ds.Len() && checked < 2; an++ {
			res, err := eng.ExplainCtx(ctx, an, q, alpha, crsky.Options{})
			if errors.Is(err, crsky.ErrNotNonAnswer) {
				continue
			}
			if err != nil {
				t.Errorf("seed=%d an=%d: explain: %v", seed, an, err)
				return
			}
			checked++
			if err := eng.VerifyCtx(ctx, q, alpha, res); err != nil {
				t.Errorf("seed=%d an=%d: verify rejected a fresh explanation: %v", seed, an, err)
				return
			}
			if len(res.Causes) > 0 {
				if eng.VerifyCtx(ctx, q, alpha, tamperedCopy(res)) == nil {
					t.Errorf("seed=%d an=%d: tampered explanation verified", seed, an)
					return
				}
			}

			rep, err := eng.RepairCtx(ctx, an, q, alpha, crsky.Options{})
			if err != nil {
				t.Errorf("seed=%d an=%d: repair: %v", seed, an, err)
				return
			}
			if rep.Exact {
				c := fmt.Sprintf("seed=%d an=%d", seed, an)
				if !checkRepairFacts(t, c+" oracle", causality.BruteCausesUncertain(ds.Objects, q, an, alpha), rep) ||
					!checkRepairFacts(t, c+" ExplainCtx", res.Causes, rep) {
					return
				}
				if len(rep.Removed) > 1 {
					exact++
				}
			}
			drop := map[int]bool{}
			for _, id := range rep.Removed {
				drop[id] = true
			}
			kept := make([]*uncertain.Object, 0, ds.Len())
			for _, o := range ds.Objects {
				if !drop[o.ID] {
					kept = append(kept, o)
				}
			}
			pr := prob.PrReverseSkyline(ds.Objects[an], q, kept)
			if !prob.GEq(pr, alpha) {
				t.Errorf("seed=%d an=%d: removing %v leaves Pr=%v < α=%v",
					seed, an, rep.Removed, pr, alpha)
				return
			}
			if math.Abs(pr-rep.NewPr) > 1e-9 {
				t.Errorf("seed=%d an=%d: NewPr=%v, oracle recomputes %v", seed, an, rep.NewPr, pr)
				return
			}
		}
	})
}

// TestConformanceVerifyRepairCertain runs the matrix on the certain-data
// engine (closed form, Lemma 7): the repair flip is re-checked through
// copy-on-write index deletes rather than a probability oracle.
func TestConformanceVerifyRepairCertain(t *testing.T) {
	forEachCaseSeed(t, 46_000, 10, func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		cfg := dataset.CertainConfig{
			N:    25 + rng.Intn(75),
			Dims: 2 + rng.Intn(2),
			Kind: dataset.CertainKind(rng.Intn(4)),
			Seed: rng.Int63(),
		}
		ds, err := dataset.GenerateCertain(cfg)
		if err != nil {
			t.Errorf("seed=%d: %v", seed, err)
			return
		}
		q := make(geom.Point, cfg.Dims)
		for j := range q {
			q[j] = 10000 * (0.2 + 0.6*rng.Float64())
		}
		ctx := context.Background()
		eng, err := crsky.NewCertainEngine(ds.Points)
		if err != nil {
			t.Errorf("seed=%d: %v", seed, err)
			return
		}
		an := -1
		for i := range ds.Points {
			if !certainMember(eng, i, q) {
				an = i
				break
			}
		}
		if an < 0 {
			return
		}
		res, err := eng.ExplainCtx(ctx, an, q, 1, crsky.Options{})
		if err != nil {
			t.Errorf("seed=%d an=%d: explain: %v", seed, an, err)
			return
		}
		if err := eng.VerifyCtx(ctx, q, 1, res); err != nil {
			t.Errorf("seed=%d an=%d: verify rejected a fresh explanation: %v", seed, an, err)
			return
		}
		if len(res.Causes) > 0 {
			if eng.VerifyCtx(ctx, q, 1, tamperedCopy(res)) == nil {
				t.Errorf("seed=%d an=%d: tampered explanation verified", seed, an)
				return
			}
		}
		rep, err := eng.RepairCtx(ctx, an, q, 1, crsky.Options{})
		if err != nil {
			t.Errorf("seed=%d an=%d: repair: %v", seed, an, err)
			return
		}
		live, err := withDeletes(eng, rep.Removed...)
		if err != nil {
			t.Errorf("seed=%d: %v", seed, err)
			return
		}
		if !certainMember(live, an, q) {
			t.Errorf("seed=%d an=%d: removing %v did not flip the non-answer", seed, an, rep.Removed)
			return
		}
		if rep.NewPr != 1 {
			t.Errorf("seed=%d an=%d: certain repair NewPr=%v, want 1", seed, an, rep.NewPr)
		}
	})
}

// TestConformanceVerifyRepairPDF runs the matrix on the continuous model —
// the half the API used to carve out. ExplainCtx must record the quadrature
// resolution it ran at, VerifyCtx must re-integrate and pass at that
// resolution, and RepairCtx's removal set must flip the non-answer under
// the cubature oracle at the same resolution. An Exact repair also holds
// ExplainCtx's causes to the minimum-repair facts.
func TestConformanceVerifyRepairPDF(t *testing.T) {
	exact := 0
	defer func() {
		if !t.Failed() && os.Getenv(ReplaySeedEnv) == "" && exact < 5 {
			t.Errorf("only %d exact pdf repairs with |R*| > 1 — workload drifted", exact)
		}
	}()
	forEachCaseSeed(t, 47_000, 8, func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		dims := 2 + rng.Intn(2)
		n := 8 + rng.Intn(10)
		rmax := 80 + 400*rng.Float64()
		cfg := families[rng.Intn(len(families))](n, dims, 10, rmax, rng.Int63())
		quad := 3 + rng.Intn(3)
		alpha := 0.3 + 0.5*rng.Float64()
		objs, err := dataset.GenerateUncertainPDF(cfg, uncertain.Uniform)
		if err != nil {
			t.Errorf("seed=%d: %v", seed, err)
			return
		}
		eng, err := crsky.NewPDFEngine(objs)
		if err != nil {
			t.Errorf("seed=%d: %v", seed, err)
			return
		}
		q := randomQuery(rng, cfg)
		ctx := context.Background()
		opts := crsky.Options{QuadNodes: quad}
		checked := 0
		for an := 0; an < eng.Len() && checked < 2; an++ {
			res, err := eng.ExplainCtx(ctx, an, q, alpha, opts)
			if errors.Is(err, crsky.ErrNotNonAnswer) {
				continue
			}
			if err != nil {
				t.Errorf("seed=%d an=%d: explain: %v", seed, an, err)
				return
			}
			checked++
			if res.QuadNodes != quad {
				t.Errorf("seed=%d an=%d: result records QuadNodes=%d, ran at %d",
					seed, an, res.QuadNodes, quad)
				return
			}
			if err := eng.VerifyCtx(ctx, q, alpha, res); err != nil {
				t.Errorf("seed=%d an=%d: verify rejected a fresh pdf explanation: %v", seed, an, err)
				return
			}
			if len(res.Causes) > 0 {
				if eng.VerifyCtx(ctx, q, alpha, tamperedCopy(res)) == nil {
					t.Errorf("seed=%d an=%d: tampered pdf explanation verified", seed, an)
					return
				}
			}

			rep, err := eng.RepairCtx(ctx, an, q, alpha, opts)
			if err != nil {
				t.Errorf("seed=%d an=%d: repair: %v", seed, an, err)
				return
			}
			if rep.Exact {
				if !checkRepairFacts(t, fmt.Sprintf("seed=%d an=%d", seed, an), res.Causes, rep) {
					return
				}
				if len(rep.Removed) > 1 {
					exact++
				}
			}
			drop := map[int]bool{}
			for _, id := range rep.Removed {
				drop[id] = true
			}
			kept := make([]*uncertain.PDFObject, 0, len(objs))
			for _, o := range objs {
				if !drop[o.ID] {
					kept = append(kept, o)
				}
			}
			pr := prob.PrReverseSkylinePDF(objs[an], q, kept, quad)
			if !prob.GEq(pr, alpha) {
				t.Errorf("seed=%d an=%d: removing %v leaves Pr=%v < α=%v",
					seed, an, rep.Removed, pr, alpha)
				return
			}
			if math.Abs(pr-rep.NewPr) > 1e-9 {
				t.Errorf("seed=%d an=%d: NewPr=%v, cubature oracle recomputes %v",
					seed, an, rep.NewPr, pr)
				return
			}
		}
	})
}

// TestConformanceCertainClosedFormParity pits the certain engine's
// closed-form verify and repair (Lemma 7) against the Section-4 reduction
// kept as a test oracle: the same points as one-sample objects in a
// sample-model Engine at α = 1, running the general Eq.-2 code. The grids
// are tie-heavy — 3–10 integer values per axis, duplicate points, q on the
// grid — and every object is taken as an. Repairs must be deep-equal.
// Verify verdicts and error strings must match on the fresh explanation
// and on three tampered copies: responsibility halved; one contingency
// member dropped with the responsibility re-derived, so only the
// Definition-1 conditions can catch it; and a cause swapped for a
// non-dominator. After a COW delete of a dominator, verify and repair keep
// working and a tombstoned non-answer is ErrBadObject on both sides.
func TestConformanceCertainClosedFormParity(t *testing.T) {
	ctx := context.Background()
	forEachCaseSeed(t, 48_000, 150, func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		dims := 2 + rng.Intn(2)
		vals := 3 + rng.Intn(8)
		gridPoint := func() geom.Point {
			p := make(geom.Point, dims)
			for j := range p {
				p[j] = float64(rng.Intn(vals))
			}
			return p
		}
		pts := make([]geom.Point, 6+rng.Intn(20))
		for i := range pts {
			if i > 0 && rng.Intn(4) == 0 {
				pts[i] = pts[rng.Intn(i)].Clone()
			} else {
				pts[i] = gridPoint()
			}
		}
		q := gridPoint()
		eng, err := crsky.NewCertainEngine(pts)
		if err != nil {
			t.Errorf("seed=%d: %v", seed, err)
			return
		}
		oracle, err := crsky.NewEngine(dataset.MustCertain(pts).AsUncertain().Objects)
		if err != nil {
			t.Errorf("seed=%d: %v", seed, err)
			return
		}

		// check compares one engine pair on every object, returning a
		// non-answer with at least two dominators (-1 if none) for the
		// tombstone case.
		check := func(stage string, eng *crsky.CertainEngine, oracle crsky.Explainer) int {
			multi := -1
			for an := 0; an < eng.Len(); an++ {
				rep, err := eng.RepairCtx(ctx, an, q, 1, crsky.Options{})
				orep, oerr := oracle.RepairCtx(ctx, an, q, 1, crsky.Options{})
				if !sameErrClass(err, oerr) || (err == nil && !reflect.DeepEqual(rep, orep)) {
					t.Errorf("seed=%d %s an=%d: repair %+v (%v), oracle %+v (%v)",
						seed, stage, an, rep, err, orep, oerr)
					return -1
				}
				res, err := eng.ExplainCtx(ctx, an, q, 1, crsky.Options{})
				if err != nil {
					continue // answers and tombstones have nothing to verify
				}
				if multi < 0 && len(res.Causes) >= 2 {
					multi = an
				}
				for _, c := range tamperings(res, eng.Len()) {
					got := errText(eng.VerifyCtx(ctx, q, 1, c.res))
					want := errText(oracle.VerifyCtx(ctx, q, 1, c.res))
					if got != want {
						t.Errorf("seed=%d %s an=%d %s: verify %q, oracle %q", seed, stage, an, c.name, got, want)
						return -1
					}
					if c.name != "fresh" && got == "<nil>" {
						t.Errorf("seed=%d %s an=%d: %s explanation verified", seed, stage, an, c.name)
						return -1
					}
				}
			}
			return multi
		}
		an := check("base", eng, oracle)
		if an < 0 {
			return
		}

		// Tombstone a dominator of an; an keeps at least one dominator.
		res, err := eng.ExplainCtx(ctx, an, q, 1, crsky.Options{})
		if err != nil {
			t.Errorf("seed=%d an=%d: %v", seed, an, err)
			return
		}
		dead := res.Causes[0].ID
		live, err := withDeletes(eng, dead)
		if err != nil {
			t.Errorf("seed=%d: %v", seed, err)
			return
		}
		olive, err := oracle.WithDelete(dead)
		if err != nil {
			t.Errorf("seed=%d: oracle delete %d: %v", seed, dead, err)
			return
		}
		check("tombstone", live, olive)
		res, err = live.ExplainCtx(ctx, an, q, 1, crsky.Options{})
		if err != nil {
			t.Errorf("seed=%d an=%d: explain after deleting %d: %v", seed, an, dead, err)
			return
		}
		if err := live.VerifyCtx(ctx, q, 1, res); err != nil {
			t.Errorf("seed=%d an=%d: verify after deleting %d: %v", seed, an, dead, err)
		}
		if _, err := live.RepairCtx(ctx, an, q, 1, crsky.Options{}); err != nil {
			t.Errorf("seed=%d an=%d: repair after deleting %d: %v", seed, an, dead, err)
		}
		bad := *res
		bad.NonAnswer = dead
		err = live.VerifyCtx(ctx, q, 1, &bad)
		if oerr := olive.VerifyCtx(ctx, q, 1, &bad); !errors.Is(err, crsky.ErrBadObject) || errText(err) != errText(oerr) {
			t.Errorf("seed=%d: verify of tombstoned non-answer %d: %v, oracle %v", seed, dead, err, oerr)
		}
		if _, err := live.RepairCtx(ctx, dead, q, 1, crsky.Options{}); !errors.Is(err, crsky.ErrBadObject) {
			t.Errorf("seed=%d: repair of tombstoned non-answer %d: %v", seed, dead, err)
		}
	})
}

// tampering is one explanation handed to both verifiers.
type tampering struct {
	name string
	res  *causality.Result
}

// tamperings returns the fresh explanation res plus every tampered copy
// that applies to it. n is the object count, for picking a non-dominator.
func tamperings(res *causality.Result, n int) []tampering {
	out := []tampering{{"fresh", res}}
	if len(res.Causes) == 0 {
		return out
	}
	out = append(out, tampering{"halved", tamperedCopy(res)})

	clone := func() *causality.Result {
		bad := *res
		bad.Causes = make([]causality.Cause, len(res.Causes))
		for i, c := range res.Causes {
			c.Contingency = append([]int(nil), c.Contingency...)
			bad.Causes[i] = c
		}
		return &bad
	}
	if len(res.Causes[0].Contingency) > 0 {
		bad := clone()
		c := &bad.Causes[0]
		c.Contingency = c.Contingency[:len(c.Contingency)-1]
		c.Responsibility = 1 / float64(1+len(c.Contingency))
		c.Counterfactual = len(c.Contingency) == 0
		out = append(out, tampering{"dropped", bad})
	}
	inCc := map[int]bool{res.NonAnswer: true}
	for _, c := range res.Causes {
		inCc[c.ID] = true
	}
	for id := 0; id < n; id++ {
		if !inCc[id] {
			bad := clone()
			bad.Causes[0].ID = id
			out = append(out, tampering{"swapped", bad})
			break
		}
	}
	return out
}

// sameErrClass reports whether two errors agree on success and on the
// crsky sentinel they wrap.
func sameErrClass(a, b error) bool {
	return (a == nil) == (b == nil) &&
		errors.Is(a, crsky.ErrNotNonAnswer) == errors.Is(b, crsky.ErrNotNonAnswer) &&
		errors.Is(a, crsky.ErrBadObject) == errors.Is(b, crsky.ErrBadObject)
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}
