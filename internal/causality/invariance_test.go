package causality

import (
	"math/rand"
	"testing"

	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/prob"
	"github.com/crsky/crsky/internal/uncertain"
)

// TestCPPermutationInvariance: relabeling the dataset objects must yield
// the same causes modulo the relabeling — CP's output is a function of the
// data, not of storage order.
func TestCPPermutationInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(141))
	ran := 0
	for trial := 0; trial < 80 && ran < 25; trial++ {
		n := 6 + r.Intn(4)
		ds := randTinyUncertain(r, n, 2, 3)
		q := geom.Point{30, 30}
		anID := r.Intn(n)
		if prob.GEq(prob.PrReverseSkyline(ds.Objects[anID], q, ds.Objects), 0.5) {
			continue
		}
		ran++
		base, err := CP(ds, q, anID, 0.5, Options{})
		if err != nil {
			t.Fatal(err)
		}

		// Apply a random permutation: object old i becomes new perm[i].
		perm := r.Perm(n)
		objs := make([]*uncertain.Object, n)
		for i, o := range ds.Objects {
			c := o.Clone()
			c.ID = perm[i]
			objs[perm[i]] = c
		}
		permDS := dataset.MustUncertain(objs)
		got, err := CP(permDS, q, perm[anID], 0.5, Options{})
		if err != nil {
			t.Fatal(err)
		}

		if len(got.Causes) != len(base.Causes) || got.Candidates != base.Candidates {
			t.Fatalf("permutation changed the result: %d/%d causes, %d/%d candidates",
				len(got.Causes), len(base.Causes), got.Candidates, base.Candidates)
		}
		// Compare per-cause responsibilities through the relabeling.
		baseResp := map[int]float64{}
		for _, c := range base.Causes {
			baseResp[perm[c.ID]] = c.Responsibility
		}
		for _, c := range got.Causes {
			want, ok := baseResp[c.ID]
			if !ok {
				t.Fatalf("cause %d not present in base result", c.ID)
			}
			if diff := c.Responsibility - want; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("cause %d responsibility %v, want %v", c.ID, c.Responsibility, want)
			}
		}
	}
	if ran < 10 {
		t.Fatalf("only %d informative trials", ran)
	}
}

// TestCPSampleOrderInvariance: permuting the samples inside each uncertain
// object must not change the causes (Eq. 2 is order-free).
func TestCPSampleOrderInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(142))
	ran := 0
	for trial := 0; trial < 60 && ran < 15; trial++ {
		n := 5 + r.Intn(4)
		ds := randTinyUncertain(r, n, 2, 4)
		q := geom.Point{30, 30}
		anID := r.Intn(n)
		if prob.GEq(prob.PrReverseSkyline(ds.Objects[anID], q, ds.Objects), 0.5) {
			continue
		}
		ran++
		base, err := CP(ds, q, anID, 0.5, Options{})
		if err != nil {
			t.Fatal(err)
		}
		objs := make([]*uncertain.Object, n)
		for i, o := range ds.Objects {
			c := o.Clone()
			r.Shuffle(len(c.Samples), func(a, b int) {
				c.Samples[a], c.Samples[b] = c.Samples[b], c.Samples[a]
			})
			objs[i] = c
		}
		got, err := CP(dataset.MustUncertain(objs), q, anID, 0.5, Options{})
		if err != nil {
			t.Fatal(err)
		}
		causesEqual(t, got.Causes, base.Causes, "sample-order invariance")
	}
	if ran < 5 {
		t.Fatalf("only %d informative trials", ran)
	}
}

// TestAblationFlagsPreserveResults: every ablation switch must leave the
// causes untouched — the lemmas are optimizations, not semantics.
func TestAblationFlagsPreserveResults(t *testing.T) {
	r := rand.New(rand.NewSource(143))
	variants := []struct {
		opts Options
		// monotone marks variants that only grow the search space without
		// changing the enumeration order or the seeded bounds, for which
		// "examines at least as many subsets as full CP" is a theorem.
		// NoMassOrder can luck into hits earlier on specific instances, and
		// NoRepairSeed skips the seed's own counted leaves, so only result
		// equality is asserted for them.
		monotone bool
	}{
		{Options{NoLemma4: true}, false},
		{Options{NoLemma5: true}, false},
		{Options{NoLemma6: true}, true},
		{Options{NoPrune: true}, true},
		{Options{NoAdmissible: true}, true},
		{Options{NoLemma4: true, NoLemma5: true, NoLemma6: true, NoPrune: true}, false},
		{Options{NoMassOrder: true}, false},
		{Options{NoRepairSeed: true}, false},
		{Options{NoAdmissible: true, NoMassOrder: true, NoRepairSeed: true}, false},
		{Options{NoLemma4: true, NoLemma5: true, NoLemma6: true, NoPrune: true,
			NoAdmissible: true, NoMassOrder: true, NoRepairSeed: true}, false},
	}
	ran := 0
	for trial := 0; trial < 80 && ran < 20; trial++ {
		n := 4 + r.Intn(4)
		ds := randTinyUncertain(r, n, 2, 3)
		q := geom.Point{30, 30}
		anID := r.Intn(n)
		if prob.GEq(prob.PrReverseSkyline(ds.Objects[anID], q, ds.Objects), 0.5) {
			continue
		}
		ran++
		base, err := CP(ds, q, anID, 0.5, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for vi, v := range variants {
			got, err := CP(ds, q, anID, 0.5, v.opts)
			if err != nil {
				t.Fatalf("variant %d: %v", vi, err)
			}
			causesEqual(t, got.Causes, base.Causes, "ablation variant")
			if v.monotone && got.SubsetsExamined < base.SubsetsExamined {
				t.Fatalf("variant %d examined fewer subsets (%d) than full CP (%d)",
					vi, got.SubsetsExamined, base.SubsetsExamined)
			}
		}
	}
	if ran < 8 {
		t.Fatalf("only %d informative trials", ran)
	}
}
