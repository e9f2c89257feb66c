package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randPoint(r *rand.Rand, d int) Point {
	p := make(Point, d)
	for i := range p {
		p[i] = r.Float64()*200 - 100
	}
	return p
}

func TestPointCloneIndependence(t *testing.T) {
	p := Point{1, 2, 3}
	q := p.Clone()
	q[0] = 99
	if p[0] != 1 {
		t.Fatalf("Clone aliased the original: %v", p)
	}
	if !p.Equal(Point{1, 2, 3}) {
		t.Fatalf("original mutated: %v", p)
	}
	var nilPt Point
	if nilPt.Clone() != nil {
		t.Fatal("Clone of nil should be nil")
	}
}

func TestPointEqual(t *testing.T) {
	tests := []struct {
		a, b Point
		want bool
	}{
		{Point{1, 2}, Point{1, 2}, true},
		{Point{1, 2}, Point{1, 3}, false},
		{Point{1, 2}, Point{1, 2, 3}, false},
		{Point{}, Point{}, true},
		{nil, Point{}, true},
	}
	for _, tt := range tests {
		if got := tt.a.Equal(tt.b); got != tt.want {
			t.Errorf("Equal(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestPointArithmetic(t *testing.T) {
	a := Point{1, 2, 3}
	b := Point{4, 5, 6}
	if got := a.Add(b); !got.Equal(Point{5, 7, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := b.Sub(a); !got.Equal(Point{3, 3, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); !got.Equal(Point{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
}

func TestPointDistances(t *testing.T) {
	a := Point{0, 0}
	b := Point{3, 4}
	if got := a.Dist(b); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
}

func TestDistanceMetricProperties(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		d := 1 + r.Intn(5)
		a, b, c := randPoint(r, d), randPoint(r, d), randPoint(r, d)
		if got := a.Dist(a); got != 0 {
			t.Fatalf("Dist(a,a) = %v, want 0", got)
		}
		if math.Abs(a.Dist(b)-b.Dist(a)) > 1e-12 {
			t.Fatal("Dist not symmetric")
		}
		if a.Dist(c) > a.Dist(b)+b.Dist(c)+1e-9 {
			t.Fatal("Dist violates triangle inequality")
		}
	}
}

func TestPointIsFinite(t *testing.T) {
	if !(Point{1, 2}).IsFinite() {
		t.Error("finite point reported non-finite")
	}
	if (Point{1, math.NaN()}).IsFinite() {
		t.Error("NaN point reported finite")
	}
	if (Point{math.Inf(1)}).IsFinite() {
		t.Error("Inf point reported finite")
	}
}

func TestPointString(t *testing.T) {
	if got := (Point{1, 2.5}).String(); got != "(1, 2.5)" {
		t.Errorf("String = %q", got)
	}
}

func TestDimMismatchPanics(t *testing.T) {
	cases := map[string]func(){
		"Add":   func() { Point{1}.Add(Point{1, 2}) },
		"Sub":   func() { Point{1}.Sub(Point{1, 2}) },
		"Dist":  func() { Point{1}.Dist(Point{1, 2}) },
		"DynD":  func() { DynDominates(Point{1}, Point{1, 2}, Point{1, 2}) },
		"CtPnt": func() { NewRect(Point{0, 0}, Point{1, 1}).ContainsPoint(Point{0}) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on dimensionality mismatch", name)
				}
			}()
			fn()
		}()
	}
}

func TestScaleRoundTripQuick(t *testing.T) {
	f := func(xs []float64, s float64) bool {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return true
		}
		s = math.Mod(s, 1e3)
		if math.Abs(s) < 1e-3 {
			return true
		}
		p := make(Point, len(xs))
		for i, v := range xs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			p[i] = math.Mod(v, 1e6)
		}
		back := p.Scale(s).Scale(1 / s)
		for i := range p {
			if math.Abs(back[i]-p[i]) > 1e-6*(1+math.Abs(p[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
