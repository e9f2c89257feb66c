package dataset

import (
	"math"
	"testing"

	"github.com/crsky/crsky/internal/uncertain"
)

func TestGenerateUncertainDeterministicAndValid(t *testing.T) {
	cfg := LUrU(500, 3, 0, 5, 42)
	ds1, err := GenerateUncertain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds2, err := GenerateUncertain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds1.Len() != 500 || ds1.Dims() != 3 {
		t.Fatalf("Len/Dims = %d/%d", ds1.Len(), ds1.Dims())
	}
	for i := range ds1.Objects {
		if err := ds1.Objects[i].Validate(); err != nil {
			t.Fatalf("object %d invalid: %v", i, err)
		}
		for s := range ds1.Objects[i].Samples {
			a := ds1.Objects[i].Samples[s].Loc
			b := ds2.Objects[i].Samples[s].Loc
			if !a.Equal(b) {
				t.Fatal("same seed must reproduce identical data")
			}
		}
	}
	ds3, err := GenerateUncertain(LUrU(500, 3, 0, 5, 43))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range ds1.Objects {
		if !ds1.Objects[i].Samples[0].Loc.Equal(ds3.Objects[i].Samples[0].Loc) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestGenerateUncertainRadiusBound(t *testing.T) {
	for _, cfg := range []UncertainConfig{
		LUrU(300, 2, 0, 5, 1),
		LUrG(300, 2, 1, 8, 2),
		LSrU(300, 4, 0, 10, 3),
		LSrG(300, 3, 0, 2, 4),
	} {
		ds, err := GenerateUncertain(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range ds.Objects {
			mbr := o.MBR()
			// The uncertainty region half-diagonal is bounded by RMax
			// (clipping can only shrink it).
			var diag float64
			for j := 0; j < cfg.Dims; j++ {
				half := (mbr.Max[j] - mbr.Min[j]) / 2
				diag += half * half
			}
			if math.Sqrt(diag) > cfg.RMax+1e-9 {
				t.Fatalf("object %d exceeds radius bound: %v > %v", o.ID, math.Sqrt(diag), cfg.RMax)
			}
			for _, s := range o.Samples {
				for j, v := range s.Loc {
					if v < 0 || v > 10000 {
						t.Fatalf("sample coordinate %d out of domain: %v", j, v)
					}
				}
			}
		}
	}
}

func TestGenerateUncertainSkewCenters(t *testing.T) {
	uni, _ := GenerateUncertain(LUrU(2000, 2, 0, 5, 7))
	skw, _ := GenerateUncertain(LSrU(2000, 2, 0, 5, 7))
	mean := func(ds *Uncertain) float64 {
		var m float64
		for _, o := range ds.Objects {
			m += o.Samples[0].Loc[0]
		}
		return m / float64(ds.Len())
	}
	if mean(skw) > mean(uni)*0.6 {
		t.Fatalf("skew centers should concentrate near origin: skew mean %v vs uniform mean %v",
			mean(skw), mean(uni))
	}
}

func TestGenerateUncertainConfigValidation(t *testing.T) {
	bad := []UncertainConfig{
		{N: 0, Dims: 2},
		{N: 10, Dims: 0},
		{N: 10, Dims: 2, RMin: 5, RMax: 2},
		{N: 10, Dims: 2, RMin: -1},
		{N: 10, Dims: 2, Samples: -3},
		{N: 10, Dims: 2, Centers: Distribution(9)},
		{N: 10, Dims: 2, Radii: DistSkew},
	}
	for i, cfg := range bad {
		if _, err := GenerateUncertain(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

func TestGenerateUncertainPDF(t *testing.T) {
	for _, kind := range []uncertain.PDFKind{uncertain.Uniform, uncertain.Gaussian} {
		objs, err := GenerateUncertainPDF(LUrU(200, 3, 0, 5, 11), kind)
		if err != nil {
			t.Fatal(err)
		}
		if len(objs) != 200 {
			t.Fatalf("got %d objects", len(objs))
		}
		for _, o := range objs {
			if err := o.Validate(); err != nil {
				t.Fatalf("pdf object %d invalid: %v", o.ID, err)
			}
			if o.Kind != kind {
				t.Fatalf("kind = %v, want %v", o.Kind, kind)
			}
		}
	}
	// Discrete and pdf twins share seeded regions: same object centers.
	disc, _ := GenerateUncertain(LUrU(50, 2, 0, 5, 13))
	cont, _ := GenerateUncertainPDF(LUrU(50, 2, 0, 5, 13), uncertain.Uniform)
	for i := range cont {
		mbr := disc.Objects[i].MBR()
		if !cont[i].Region.ContainsRect(mbr) {
			t.Fatalf("object %d: discrete samples escape the pdf region", i)
		}
	}
}

func TestGenerateCertainKinds(t *testing.T) {
	for _, kind := range []CertainKind{Independent, Correlated, AntiCorrelated, Clustered} {
		ds, err := GenerateCertain(CertainConfig{N: 1500, Dims: 3, Kind: kind, Seed: 5})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if ds.Len() != 1500 || ds.Dims() != 3 {
			t.Fatalf("%v: Len/Dims = %d/%d", kind, ds.Len(), ds.Dims())
		}
		for _, p := range ds.Points {
			for _, v := range p {
				if v < 0 || v > 10000 {
					t.Fatalf("%v: coordinate %v out of domain", kind, v)
				}
			}
		}
	}
}

// TestCertainCorrelationSigns checks the definitional property of the
// correlated / anti-correlated families via the sample Pearson correlation
// between the first two dimensions.
func TestCertainCorrelationSigns(t *testing.T) {
	corrOf := func(kind CertainKind) float64 {
		ds, err := GenerateCertain(CertainConfig{N: 4000, Dims: 2, Kind: kind, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		var mx, my float64
		for _, p := range ds.Points {
			mx += p[0]
			my += p[1]
		}
		n := float64(ds.Len())
		mx /= n
		my /= n
		var sxy, sxx, syy float64
		for _, p := range ds.Points {
			dx, dy := p[0]-mx, p[1]-my
			sxy += dx * dy
			sxx += dx * dx
			syy += dy * dy
		}
		return sxy / math.Sqrt(sxx*syy)
	}
	if c := corrOf(Correlated); c < 0.8 {
		t.Errorf("correlated corr = %v, want strongly positive", c)
	}
	if c := corrOf(AntiCorrelated); c > -0.3 {
		t.Errorf("anti-correlated corr = %v, want negative", c)
	}
	if c := corrOf(Independent); math.Abs(c) > 0.1 {
		t.Errorf("independent corr = %v, want near zero", c)
	}
}

func TestGenerateCertainValidation(t *testing.T) {
	if _, err := GenerateCertain(CertainConfig{N: 0, Dims: 2}); err == nil {
		t.Error("N=0 should fail")
	}
	if _, err := GenerateCertain(CertainConfig{N: 5, Dims: 0}); err == nil {
		t.Error("Dims=0 should fail")
	}
	if _, err := GenerateCertain(CertainConfig{N: 5, Dims: 2, Kind: CertainKind(77)}); err == nil {
		t.Error("bad kind should fail")
	}
	if Independent.String() != "IND" || AntiCorrelated.String() != "ANT" {
		t.Error("CertainKind.String broken")
	}
}

func TestGenerateCarDB(t *testing.T) {
	db := GenerateCarDB(17)
	if db.Len() != 45311 {
		t.Fatalf("Len = %d, want 45311 (paper cardinality)", db.Len())
	}
	if db.Dims() != 2 {
		t.Fatalf("Dims = %d", db.Dims())
	}
	// Negative price/mileage correlation.
	var mp, mm float64
	for _, p := range db.Points {
		mp += p[0]
		mm += p[1]
	}
	n := float64(db.Len())
	mp /= n
	mm /= n
	var sxy, sxx, syy float64
	for _, p := range db.Points {
		dx, dy := p[0]-mp, p[1]-mm
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if corr := sxy / math.Sqrt(sxx*syy); corr > -0.2 {
		t.Fatalf("price/mileage correlation = %v, want negative", corr)
	}
	for _, p := range db.Points {
		if p[0] < 500 || p[0] > 100000 || p[1] < 0 || p[1] > 250000 {
			t.Fatalf("point out of range: %v", p)
		}
	}
	// Determinism.
	db2 := GenerateCarDB(17)
	for i := range db.Points {
		if !db.Points[i].Equal(db2.Points[i]) {
			t.Fatal("same seed must reproduce identical data")
		}
	}
}

func TestGenerateNBA(t *testing.T) {
	nba := GenerateNBA(3)
	if nba.Len() != 3542 {
		t.Fatalf("players = %d, want 3542 (paper cardinality)", nba.Len())
	}
	if nba.Dims() != NBADims {
		t.Fatalf("Dims = %d, want %d", nba.Dims(), NBADims)
	}
	if len(nba.Names) != nba.Len() {
		t.Fatalf("names = %d", len(nba.Names))
	}
	records := nba.TotalRecords()
	// The real dataset has 15,272 records; the synthetic career-length
	// distribution should land in the same regime.
	if records < 20000 || records > 45000 {
		t.Fatalf("records = %d, outside the plausible range", records)
	}
	stars := 0
	for i, o := range nba.Objects {
		if err := o.Validate(); err != nil {
			t.Fatalf("player %d invalid: %v", i, err)
		}
		if len(o.Samples) < 1 || len(o.Samples) > 17 {
			t.Fatalf("player %d has %d seasons", i, len(o.Samples))
		}
		if nba.Names[i][:4] == "Star" {
			stars++
		}
	}
	if stars < 20 || stars > 200 {
		t.Fatalf("stars = %d, want a small elite tier", stars)
	}
}
