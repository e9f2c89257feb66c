package uncertain

import (
	"math"
	"testing"

	"github.com/crsky/crsky/internal/geom"
)

// FuzzQuadrature hammers the cubature builder with byte-derived geometry:
// degenerate (zero-width) regions, tiny and skewed Gaussian parameters, and
// k = 0/1 edge cases. Properties: no panic, finite nodes inside the region,
// each node's X exactly dims long and wide (a window of the shared backing
// slice that an append cannot spill into its neighbour), and weights
// summing to 1.
func FuzzQuadrature(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(1), false)
	f.Add(uint8(10), uint8(0), uint8(20), uint8(5), uint8(0), true) // k=0
	f.Add(uint8(255), uint8(255), uint8(1), uint8(1), uint8(7), true)
	f.Add(uint8(3), uint8(3), uint8(0), uint8(0), uint8(4), false) // zero-width region

	f.Fuzz(func(t *testing.T, loRaw, loRaw2, wRaw, hRaw, kRaw uint8, gaussian bool) {
		lo := geom.Point{float64(loRaw) / 4, float64(loRaw2) / 4}
		hi := geom.Point{lo[0] + float64(wRaw)/8, lo[1] + float64(hRaw)/8}
		region := geom.Rect{Min: lo, Max: hi}
		var o *PDFObject
		if gaussian {
			o = NewGaussianPDF(1, region, nil, nil)
		} else {
			o = NewUniformPDF(1, region)
		}
		if err := o.Validate(); err != nil {
			return
		}
		k := int(kRaw) % 10 // includes 0 and 1

		nodes := o.Quadrature(k)
		if want := max(k, 1) * max(k, 1); len(nodes) != want {
			t.Fatalf("k=%d: %d nodes, want %d", k, len(nodes), want)
		}
		var sum float64
		for i, n := range nodes {
			if len(n.X) != 2 || cap(n.X) != 2 {
				t.Fatalf("k=%d node %d: X has length %d and capacity %d, want 2 and 2", k, i, len(n.X), cap(n.X))
			}
			if math.IsNaN(n.W) || math.IsInf(n.W, 0) {
				t.Fatalf("k=%d node %d: non-finite weight %v", k, i, n.W)
			}
			for d, x := range n.X {
				if math.IsNaN(x) || x < region.Min[d]-1e-9 || x > region.Max[d]+1e-9 {
					t.Fatalf("k=%d node %d: coordinate %v escapes region %v", k, i, x, region)
				}
			}
			sum += n.W
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("k=%d: weights sum to %v, want 1", k, sum)
		}
	})
}

// TestQuadratureAllocs pins the cost of deriving a rule, which every pdf
// evaluation pays: the default 2-d rule (24 nodes a dimension, 576 nodes)
// takes a fixed handful of allocations, not one per node.
func TestQuadratureAllocs(t *testing.T) {
	o := NewGaussianPDF(1, geom.NewRect(geom.Point{1, 2}, geom.Point{4, 7}), nil, nil)
	k := DefaultQuadNodes(2)
	if k != 24 {
		t.Fatalf("default 2-d resolution is %d, want 24", k)
	}
	if allocs := testing.AllocsPerRun(20, func() { o.Quadrature(k) }); allocs > 16 {
		t.Fatalf("a 2-d, %d-node rule takes %.0f allocations, want at most 16", k, allocs)
	}
}
