// Package conformance is the cross-engine correctness harness: randomized
// datasets across sizes, dimensionalities, correlation families, and
// thresholds, with every accelerated query configuration asserted
// set-identical to the naive per-object oracle. The causality machinery
// (Meliou et al.; Gao et al.) is only meaningful against exact query
// semantics, so every fast path — indexed join, first- and second-tier
// bounds — must reproduce the oracle bit for bit; this package
// enforces that by construction rather than by review.
//
// Every randomized case derives deterministically from a single int64 case
// seed. On failure the harness prints that seed; replay it in isolation
// with
//
//	CRSKY_CONFORMANCE_SEED=<seed> go test ./internal/conformance/ -run <TestName>
//
// which skips every other case and re-runs the failing one verbatim.
package conformance

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	crsky "github.com/crsky/crsky"
	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/uncertain"
)

// ReplaySeedEnv selects a single case seed for replay (see package doc).
const ReplaySeedEnv = "CRSKY_CONFORMANCE_SEED"

// Variant is one accelerated query configuration under test. The list
// covers the full option cross: second tier on and off, the bound-free
// ablation, and the incremental-maintenance build (same query options,
// different engine lineage).
type Variant struct {
	Name string
	Opt  crsky.QueryOptions
	// Incremental selects the engine rebuilt through the copy-on-write
	// mutation path (half the objects via WithInsert, plus a tombstone from
	// a decoy insert+delete) instead of the from-scratch build. Answers must
	// be identical: the mutation path is maintenance, not approximation.
	Incremental bool
}

// Variants enumerates every accelerated configuration the harness compares
// against the oracle.
func Variants() []Variant {
	return []Variant{
		{Name: "default", Opt: crsky.QueryOptions{}},
		{Name: "notier2", Opt: crsky.QueryOptions{NoTier2: true}},
		{Name: "nobounds", Opt: crsky.QueryOptions{NoBounds: true}},
		{Name: "incremental", Opt: crsky.QueryOptions{}, Incremental: true},
	}
}

// rebuildIncremental re-derives an engine through the dynamic data plane's
// copy-on-write mutation path: base already holds a prefix of the objects,
// rest arrive one WithInsert at a time, and the decoy is inserted and
// immediately deleted so the final engine carries a tombstone slot. The
// result must answer every query exactly like the from-scratch build of the
// same live set.
func rebuildIncremental(t *testing.T, base crsky.Explainer, rest []crsky.InsertSpec, decoy crsky.InsertSpec) crsky.Explainer {
	t.Helper()
	eng := base
	for i, spec := range rest {
		ne, _, err := eng.WithInsert(spec)
		if err != nil {
			t.Fatalf("incremental insert %d: %v", i, err)
		}
		eng = ne
	}
	ne, id, err := eng.WithInsert(decoy)
	if err != nil {
		t.Fatalf("decoy insert: %v", err)
	}
	eng, err = ne.WithDelete(id)
	if err != nil {
		t.Fatalf("decoy delete: %v", err)
	}
	return eng
}

// incrementalSampleEngine builds the discrete-sample engine for objs with
// the second half arriving through the mutation path.
func incrementalSampleEngine(t *testing.T, objs []*uncertain.Object) *crsky.Engine {
	t.Helper()
	k := len(objs) / 2
	base, err := crsky.NewEngine(objs[:k])
	if err != nil {
		t.Fatalf("incremental base: %v", err)
	}
	rest := make([]crsky.InsertSpec, len(objs)-k)
	for i, o := range objs[k:] {
		rest[i] = crsky.InsertSpec{Samples: o.Samples}
	}
	decoy := crsky.InsertSpec{Samples: append([]crsky.Sample(nil), objs[0].Samples...)}
	return rebuildIncremental(t, base, rest, decoy).(*crsky.Engine)
}

// incrementalPDFEngine is the continuous-model counterpart.
func incrementalPDFEngine(t *testing.T, objs []*uncertain.PDFObject) *crsky.PDFEngine {
	t.Helper()
	k := len(objs) / 2
	base, err := crsky.NewPDFEngine(objs[:k])
	if err != nil {
		t.Fatalf("incremental base: %v", err)
	}
	rest := make([]crsky.InsertSpec, len(objs)-k)
	for i, o := range objs[k:] {
		rest[i] = crsky.InsertSpec{PDF: o}
	}
	return rebuildIncremental(t, base, rest, crsky.InsertSpec{PDF: objs[0]}).(*crsky.PDFEngine)
}

// incrementalCertainEngine is the certain-model counterpart.
func incrementalCertainEngine(t *testing.T, pts []geom.Point) *crsky.CertainEngine {
	t.Helper()
	k := len(pts) / 2
	base, err := crsky.NewCertainEngine(pts[:k])
	if err != nil {
		t.Fatalf("incremental base: %v", err)
	}
	rest := make([]crsky.InsertSpec, len(pts)-k)
	for i, p := range pts[k:] {
		rest[i] = crsky.InsertSpec{Point: p}
	}
	return rebuildIncremental(t, base, rest, crsky.InsertSpec{Point: pts[0]}).(*crsky.CertainEngine)
}

// forEachCaseSeed drives the harness: n deterministic case seeds derived
// from base, or exactly the one seed given in CRSKY_CONFORMANCE_SEED.
func forEachCaseSeed(t *testing.T, base int64, n int, run func(t *testing.T, seed int64)) {
	t.Helper()
	if v := os.Getenv(ReplaySeedEnv); v != "" {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("%s=%q: %v", ReplaySeedEnv, v, err)
		}
		t.Logf("replaying single case seed %d", seed)
		run(t, seed)
		return
	}
	for i := 0; i < n; i++ {
		seed := base + int64(i)
		run(t, seed)
		if t.Failed() {
			t.Fatalf("replay: %s=%d go test ./internal/conformance/ -run %s", ReplaySeedEnv, seed, t.Name())
		}
	}
}

// sampleWorkload is one randomized discrete-sample dataset with query
// points and thresholds, fully determined by its seed.
type sampleWorkload struct {
	seed   int64
	cfg    dataset.UncertainConfig
	ds     *dataset.Uncertain
	qs     []geom.Point
	alphas []float64
}

var families = []func(n, dims int, rmin, rmax float64, seed int64) dataset.UncertainConfig{
	dataset.LUrU, dataset.LUrG, dataset.LSrU, dataset.LSrG,
}

func newSampleWorkload(t *testing.T, seed int64) *sampleWorkload {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dims := 2 + rng.Intn(3)
	n := 30 + rng.Intn(100)
	// Radii large relative to the domain force overlapping dominance
	// neighbourhoods: populated candidate streams, partial overlaps for
	// the second tier, and a non-empty undecided band.
	rmax := 100 + 1400*rng.Float64()
	cfg := families[rng.Intn(len(families))](n, dims, 0, rmax, rng.Int63())
	cfg.Samples = 1 + rng.Intn(6)
	ds, err := dataset.GenerateUncertain(cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	w := &sampleWorkload{seed: seed, cfg: cfg, ds: ds}
	for i := 0; i < 3; i++ {
		w.qs = append(w.qs, randomQuery(rng, cfg))
	}
	w.alphas = []float64{0.25 + 0.5*rng.Float64(), 0.9, 1}
	return w
}

// randomQuery draws a query point uniformly from the central 70% of cfg's
// domain on every axis, so it lands among the data: objects lie below,
// above and around it on each axis.
func randomQuery(rng *rand.Rand, cfg dataset.UncertainConfig) geom.Point {
	dom := cfg.EffectiveDomain()
	q := make(geom.Point, cfg.Dims)
	for j := range q {
		q[j] = dom * (0.15 + 0.7*rng.Float64())
	}
	return q
}

func (w *sampleWorkload) String() string {
	return fmt.Sprintf("seed=%d n=%d dims=%d samples=%d centers=%v radii=%v rmax=%g",
		w.seed, w.cfg.N, w.cfg.Dims, w.cfg.Samples, w.cfg.Centers, w.cfg.Radii, w.cfg.RMax)
}

func equalIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sortedCopy returns ints ascending without mutating the input.
func sortedCopy(ids []int) []int {
	out := append([]int(nil), ids...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
