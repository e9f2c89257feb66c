package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestSplitByQuadrantsSingle(t *testing.T) {
	q := Point{0, 0}
	r := NewRect(Point{1, 1}, Point{3, 4})
	pieces := SplitByQuadrants(r, q)
	if len(pieces) != 1 {
		t.Fatalf("expected 1 piece, got %d", len(pieces))
	}
	if pieces[0].Quad != 3 {
		t.Errorf("quad = %b, want 11", pieces[0].Quad)
	}
	if !pieces[0].Rect.Min.Equal(r.Min) || !pieces[0].Rect.Max.Equal(r.Max) {
		t.Errorf("piece rect = %v", pieces[0].Rect)
	}
}

func TestSplitByQuadrantsCross(t *testing.T) {
	q := Point{5, 5}
	r := NewRect(Point{3, 3}, Point{7, 7})
	pieces := SplitByQuadrants(r, q)
	if len(pieces) != 4 {
		t.Fatalf("expected 4 pieces, got %d", len(pieces))
	}
	seen := map[Quadrant]bool{}
	var vol float64
	for _, pc := range pieces {
		if seen[pc.Quad] {
			t.Fatalf("duplicate quadrant %b", pc.Quad)
		}
		seen[pc.Quad] = true
		vol += pc.Rect.Volume()
		if !r.ContainsRect(pc.Rect) {
			t.Fatalf("piece %v escapes original %v", pc.Rect, r)
		}
	}
	if math.Abs(vol-r.Volume()) > 1e-9 {
		t.Errorf("piece volumes sum to %v, want %v", vol, r.Volume())
	}
}

func TestSplitByQuadrantsPartial(t *testing.T) {
	q := Point{5, 5}
	// Straddles only dimension 0.
	r := NewRect(Point{3, 6}, Point{7, 8})
	pieces := SplitByQuadrants(r, q)
	if len(pieces) != 2 {
		t.Fatalf("expected 2 pieces, got %d", len(pieces))
	}
	if InSingleQuadrant(r, q) {
		t.Error("straddling rect reported as single-quadrant")
	}
	if !InSingleQuadrant(NewRect(Point{6, 6}, Point{7, 8}), q) {
		t.Error("contained rect reported as straddling")
	}
	// Touching the hyperplane without crossing stays single-quadrant.
	if !InSingleQuadrant(NewRect(Point{5, 6}, Point{7, 8}), q) {
		t.Error("touching rect should count as single-quadrant")
	}
}

func TestSplitByQuadrantsRandomVolume(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		d := 1 + r.Intn(4)
		rect := randRect(r, d)
		q := randPoint(r, d)
		pieces := SplitByQuadrants(rect, q)
		if len(pieces) == 0 || len(pieces) > 1<<uint(d) {
			t.Fatalf("piece count %d out of range for d=%d", len(pieces), d)
		}
		var vol float64
		for _, pc := range pieces {
			vol += pc.Rect.Volume()
			if !rect.ContainsRect(pc.Rect) {
				t.Fatal("piece escapes the original rect")
			}
			// Every piece must be on one side of each hyperplane.
			for j := 0; j < d; j++ {
				if pc.Rect.Min[j] < q[j] && pc.Rect.Max[j] > q[j] {
					t.Fatal("piece straddles a splitting hyperplane")
				}
			}
		}
		if math.Abs(vol-rect.Volume()) > 1e-6*(1+rect.Volume()) {
			t.Fatalf("volumes sum to %v, want %v", vol, rect.Volume())
		}
	}
}
