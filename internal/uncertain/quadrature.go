package uncertain

import (
	"fmt"
	"math"

	"github.com/crsky/crsky/internal/geom"
)

// QuadNode is one node of a probability-weighted cubature rule over an
// uncertain object's region: evaluating Σ w_k · f(x_k) approximates
// E[f(X)] = ∫ f(x)·pdf(x) dx. The weights sum to 1.
type QuadNode struct {
	X geom.Point
	W float64
}

// Quadrature builds a tensor-product Gauss–Legendre cubature with nodesPerDim
// nodes along each dimension, weighted by the object's density. For the
// Uniform kind with polynomially-behaved integrands the rule is essentially
// exact; for Gaussian kinds it converges quickly because the truncated
// density is smooth on the region. Every node's X is a full-capacity window
// of one backing slice, so a rule costs a fixed handful of allocations
// however many nodes it has, and callers derive it per call.
func (o *PDFObject) Quadrature(nodesPerDim int) []QuadNode {
	if nodesPerDim < 1 {
		nodesPerDim = 1
	}
	d, k := o.Dims(), nodesPerDim
	xs, ws := gaussLegendre(k)

	// Per-dimension nodes mapped to [Min, Max] and weights carrying the
	// normalized marginal density mass: dimension i's k values sit at
	// [i*k, (i+1)*k) of nodes1 and weights1.
	nodes1 := make([]float64, 2*d*k)
	weights1 := nodes1[d*k:]
	for i := 0; i < d; i++ {
		lo, hi := o.Region.Min[i], o.Region.Max[i]
		half := (hi - lo) / 2
		mid := (hi + lo) / 2
		xi, wi := nodes1[i*k:(i+1)*k], weights1[i*k:(i+1)*k]
		var total float64
		for j := range xi {
			x := mid + half*xs[j]
			xi[j] = x
			w := ws[j] * half * o.marginalDensity1(i, x)
			wi[j] = w
			total += w
		}
		// Renormalize so each marginal integrates to exactly 1,
		// removing the residual quadrature error from the total mass.
		if total > 0 {
			for j := range wi {
				wi[j] /= total
			}
		} else {
			for j := range wi {
				wi[j] = 1 / float64(k)
			}
		}
	}

	// Tensor product, dimension 0 varying fastest.
	count := 1
	for i := 0; i < d; i++ {
		count *= k
	}
	out := make([]QuadNode, count)
	coords := make([]float64, count*d)
	idx := make([]int, d)
	for n := range out {
		x := coords[n*d : (n+1)*d : (n+1)*d]
		w := 1.0
		for i, j := range idx {
			x[i] = nodes1[i*k+j]
			w *= weights1[i*k+j]
		}
		out[n] = QuadNode{X: x, W: w}
		// Advance the mixed-radix counter.
		for i := range idx {
			if idx[i]++; idx[i] < k {
				break
			}
			idx[i] = 0
		}
	}
	return out
}

// marginalDensity1 is the normalized one-dimensional marginal density of
// dimension i at x (inside the region).
func (o *PDFObject) marginalDensity1(i int, x float64) float64 {
	lo, hi := o.Region.Min[i], o.Region.Max[i]
	if x < lo || x > hi {
		return 0
	}
	switch o.Kind {
	case Uniform:
		if hi == lo {
			return 1
		}
		return 1 / (hi - lo)
	case Gaussian:
		o.fillGaussianDefaults()
		mu, sg := o.Mean[i], o.Sigma[i]
		z := stdNormalCDF((hi-mu)/sg) - stdNormalCDF((lo-mu)/sg)
		if z <= 0 {
			return 1 / (hi - lo)
		}
		return stdNormalPDF((x-mu)/sg) / (sg * z)
	default:
		panic("uncertain: unknown pdf kind")
	}
}

// DefaultQuadNodes picks a per-dimension node count that keeps the tensor
// grid tractable as the dimensionality grows (the same trade-off the paper's
// pdf-model experiments face).
func DefaultQuadNodes(dims int) int {
	switch {
	case dims <= 1:
		return 48
	case dims == 2:
		return 24
	case dims == 3:
		return 12
	case dims == 4:
		return 8
	default:
		return 6
	}
}

// maxQuadNodes caps an explicit per-dimension quadrature resolution:
// deriving the Gauss–Legendre rule takes time quadratic in it.
const maxQuadNodes = 1024

// maxQuadGrid caps the tensor grid an explicit resolution may build: every
// evaluation materializes the whole rule, at 32 + 8·dims bytes a node, so
// 2^20 nodes take about 48 MB in two dimensions.
const maxQuadGrid = 1 << 20

// CheckQuadNodes rejects an explicit per-dimension quadrature resolution k
// that must not be built for dims-dimensional objects: more than
// maxQuadNodes per dimension, or a tensor grid of more than maxQuadGrid
// nodes. Values <= 0 select the default grid, which is never rejected.
// The pdf engine runs it on entry to every method that takes a
// resolution, and the server at request admission.
func CheckQuadNodes(k, dims int) error {
	if k <= 0 || k == DefaultQuadNodes(dims) {
		return nil
	}
	if k > maxQuadNodes {
		return fmt.Errorf("quadNodes %d exceeds %d per dimension", k, maxQuadNodes)
	}
	grid := 1
	for i := 0; i < dims; i++ {
		if grid *= k; grid > maxQuadGrid {
			return fmt.Errorf("quadNodes %d builds a grid of %d^%d nodes, more than %d",
				k, k, dims, maxQuadGrid)
		}
	}
	return nil
}

// gaussLegendre returns the nodes and weights of the n-point Gauss–Legendre
// rule on [-1, 1], computed by Newton iteration on the Legendre polynomials.
func gaussLegendre(n int) (x, w []float64) {
	x = make([]float64, n)
	w = make([]float64, n)
	m := (n + 1) / 2
	for i := 0; i < m; i++ {
		// Initial guess: Chebyshev-like approximation to the i-th root.
		z := math.Cos(math.Pi * (float64(i) + 0.75) / (float64(n) + 0.5))
		var pp float64
		for iter := 0; iter < 100; iter++ {
			p1, p2 := 1.0, 0.0
			for j := 0; j < n; j++ {
				p3 := p2
				p2 = p1
				p1 = ((2*float64(j)+1)*z*p2 - float64(j)*p3) / float64(j+1)
			}
			pp = float64(n) * (z*p1 - p2) / (z*z - 1)
			z1 := z
			z = z1 - p1/pp
			if math.Abs(z-z1) < 1e-15 {
				break
			}
		}
		x[i] = -z
		x[n-1-i] = z
		w[i] = 2 / ((1 - z*z) * pp * pp)
		w[n-1-i] = w[i]
	}
	return x, w
}
