package experiments

import (
	"testing"

	"github.com/crsky/crsky/internal/causality"
)

// TestFig7ShapeDeterministic pins the two deterministic facts behind
// Fig. 7: (1) the filter I/O of CP does not depend on α for a fixed
// non-answer set, and (2) the α = 1 fast path performs zero subset
// verifications.
func TestFig7ShapeDeterministic(t *testing.T) {
	cfg := Config{Seed: 11, Runs: 5, Scale: 0.02, MaxPool: 10, MaxCandidates: 60}
	cfg.fillDefaults()
	w, err := buildCPWorkload(cfg, "lUrU", cfg.scaled(defaultN), defaultDims,
		defaultRMin, defaultRMax, 0.2, cfg.MaxCandidates)
	if err != nil {
		t.Fatal(err)
	}
	ioAt := func(alpha float64) []int64 {
		var ios []int64
		for _, id := range w.nonAnswers {
			res, err := causality.CP(w.ds, w.q, id, alpha, causality.Options{})
			if err != nil {
				t.Fatalf("alpha=%v an=%d: %v", alpha, id, err)
			}
			ios = append(ios, res.FilterNodeAccesses)
			if alpha == 1 && res.SubsetsExamined != 0 {
				t.Fatalf("alpha=1 must skip refinement, examined %d subsets", res.SubsetsExamined)
			}
		}
		return ios
	}
	base := ioAt(0.2)
	for _, alpha := range []float64{0.4, 0.6, 0.8, 1.0} {
		got := ioAt(alpha)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("I/O changed with alpha: an=%d, %d vs %d at α=%v",
					w.nonAnswers[i], got[i], base[i], alpha)
			}
		}
	}
}

// TestCPAndNaiveISameFilterIO pins the Fig. 6 I/O identity exactly: CP and
// Naive-I read the same nodes because they share the filter step.
func TestCPAndNaiveISameFilterIO(t *testing.T) {
	cfg := Config{Seed: 13, Runs: 4, Scale: 0.02, MaxPool: 8, NaiveMaxCandidates: 10}
	cfg.fillDefaults()
	w, err := buildCPWorkload(cfg, "lSrG", cfg.scaled(defaultN), defaultDims,
		defaultRMin, defaultRMax, defaultAlpha, cfg.NaiveMaxCandidates)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range w.nonAnswers {
		cp, err := causality.CP(w.ds, w.q, id, defaultAlpha, causality.Options{})
		if err != nil {
			t.Fatal(err)
		}
		naive, err := causality.NaiveI(w.ds, w.q, id, defaultAlpha, causality.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if cp.FilterNodeAccesses == 0 || naive.FilterNodeAccesses != cp.FilterNodeAccesses {
			t.Fatalf("an=%d: CP I/O %d, Naive-I I/O %d", id, cp.FilterNodeAccesses, naive.FilterNodeAccesses)
		}
	}
}
