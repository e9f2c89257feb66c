package geom

import (
	"math"
	"math/rand"
	"testing"
)

func randRect(r *rand.Rand, d int) Rect {
	return NewRect(randPoint(r, d), randPoint(r, d))
}

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(Point{5, 0}, Point{1, 4})
	if !r.Min.Equal(Point{1, 0}) || !r.Max.Equal(Point{5, 4}) {
		t.Fatalf("NewRect did not normalize: %v", r)
	}
	if !r.Valid() {
		t.Fatal("normalized rect should be valid")
	}
}

func TestRectValid(t *testing.T) {
	tests := []struct {
		r    Rect
		want bool
	}{
		{NewRect(Point{0, 0}, Point{1, 1}), true},
		{Rect{Min: Point{1, 1}, Max: Point{0, 0}}, false},
		{Rect{Min: Point{0}, Max: Point{0, 1}}, false},
		{Rect{}, false},
		{Rect{Min: Point{math.NaN()}, Max: Point{1}}, false},
		{PointRect(Point{3, 3}), true},
	}
	for i, tt := range tests {
		if got := tt.r.Valid(); got != tt.want {
			t.Errorf("case %d: Valid(%v) = %v, want %v", i, tt.r, got, tt.want)
		}
	}
}

func TestRectVolumeMarginCenter(t *testing.T) {
	r := NewRect(Point{0, 0, 0}, Point{2, 3, 4})
	if got := r.Volume(); got != 24 {
		t.Errorf("Volume = %v, want 24", got)
	}
	if got := r.Margin(); got != 9 {
		t.Errorf("Margin = %v, want 9", got)
	}
	if got := r.Center(); !got.Equal(Point{1, 1.5, 2}) {
		t.Errorf("Center = %v", got)
	}
	if got := r.Side(2); got != 4 {
		t.Errorf("Side(2) = %v, want 4", got)
	}
}

func TestRectContainment(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{10, 10})
	if !r.ContainsPoint(Point{5, 5}) || !r.ContainsPoint(Point{0, 10}) {
		t.Error("ContainsPoint failed on interior/boundary")
	}
	if r.ContainsPoint(Point{10.01, 5}) {
		t.Error("ContainsPoint accepted outside point")
	}
	if !r.ContainsRect(NewRect(Point{1, 1}, Point{9, 9})) {
		t.Error("ContainsRect failed on nested rect")
	}
	if r.ContainsRect(NewRect(Point{1, 1}, Point{11, 9})) {
		t.Error("ContainsRect accepted protruding rect")
	}
	if !r.ContainsRect(r) {
		t.Error("rect should contain itself")
	}
}

func TestRectIntersection(t *testing.T) {
	a := NewRect(Point{0, 0}, Point{5, 5})
	b := NewRect(Point{3, 3}, Point{8, 8})
	c := NewRect(Point{6, 6}, Point{7, 7})
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("overlapping rects reported disjoint")
	}
	if a.Intersects(c) {
		t.Error("disjoint rects reported intersecting")
	}
	// Touching boundary counts as intersecting.
	d := NewRect(Point{5, 0}, Point{9, 5})
	if !a.Intersects(d) {
		t.Error("touching rects should intersect")
	}
}

func TestRectUnionExpand(t *testing.T) {
	a := NewRect(Point{0, 0}, Point{2, 2})
	b := NewRect(Point{5, -1}, Point{6, 1})
	u := a.Union(b)
	if !u.Min.Equal(Point{0, -1}) || !u.Max.Equal(Point{6, 2}) {
		t.Errorf("Union = %v", u)
	}
	r := a.Clone()
	r.ExpandToRect(b)
	if !r.Min.Equal(u.Min) || !r.Max.Equal(u.Max) {
		t.Errorf("ExpandToRect = %v, want %v", r, u)
	}
	r2 := a.Clone()
	r2.ExpandToPoint(Point{-3, 7})
	if !r2.Min.Equal(Point{-3, 0}) || !r2.Max.Equal(Point{2, 7}) {
		t.Errorf("ExpandToPoint = %v", r2)
	}
}

func TestRectEnlargementOverlap(t *testing.T) {
	a := NewRect(Point{0, 0}, Point{2, 2})
	b := NewRect(Point{1, 1}, Point{3, 3})
	if got := a.Enlargement(a); got != 0 {
		t.Errorf("Enlargement(self) = %v", got)
	}
	if got := a.Enlargement(b); got != 9-4 {
		t.Errorf("Enlargement = %v, want 5", got)
	}
	if got := a.OverlapVolume(b); got != 1 {
		t.Errorf("OverlapVolume = %v, want 1", got)
	}
	c := NewRect(Point{5, 5}, Point{6, 6})
	if got := a.OverlapVolume(c); got != 0 {
		t.Errorf("OverlapVolume disjoint = %v, want 0", got)
	}
}

func TestRectCorners(t *testing.T) {
	r := NewRect(Point{2, 2}, Point{4, 6})
	q := Point{0, 0}
	if got := r.FarthestCorner(q); !got.Equal(Point{4, 6}) {
		t.Errorf("FarthestCorner = %v", got)
	}
	if got := r.NearestCorner(q); !got.Equal(Point{2, 2}) {
		t.Errorf("NearestCorner = %v", got)
	}
	// Query inside another quadrant: nearest/farthest flip per-dimension.
	q2 := Point{10, 0}
	if got := r.FarthestCorner(q2); !got.Equal(Point{2, 6}) {
		t.Errorf("FarthestCorner q2 = %v", got)
	}
	if got := r.NearestCorner(q2); !got.Equal(Point{4, 2}) {
		t.Errorf("NearestCorner q2 = %v", got)
	}
}

func TestRectPropertiesRandom(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		d := 1 + r.Intn(4)
		a, b := randRect(r, d), randRect(r, d)
		u := a.Union(b)
		if !u.ContainsRect(a) || !u.ContainsRect(b) {
			t.Fatal("union does not contain operands")
		}
		if u.Volume()+1e-9 < a.Volume() || u.Volume()+1e-9 < b.Volume() {
			t.Fatal("union volume smaller than operand")
		}
		// The overlap volume is the volume of the per-dimension clipped
		// box, zero when the rects are disjoint.
		want := 0.0
		if a.Intersects(b) {
			want = 1
			for j := range a.Min {
				want *= math.Min(a.Max[j], b.Max[j]) - math.Max(a.Min[j], b.Min[j])
			}
		}
		if math.Abs(want-a.OverlapVolume(b)) > 1e-9 {
			t.Fatalf("OverlapVolume = %v, want %v", a.OverlapVolume(b), want)
		}
	}
}
