package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/uncertain"
)

// Distribution names the center and radius distributions of the synthetic
// uncertain generator (Section 5.1: lU/lS × rU/rG).
type Distribution int

const (
	// DistUniform draws values uniformly.
	DistUniform Distribution = iota
	// DistSkew concentrates centers near the domain origin (the paper's
	// "Skew" center distribution).
	DistSkew
	// DistGaussian draws radii from a clamped normal around the range
	// midpoint (the paper's "Gaussian" radius distribution).
	DistGaussian
)

func (d Distribution) String() string {
	switch d {
	case DistUniform:
		return "uniform"
	case DistSkew:
		return "skew"
	case DistGaussian:
		return "gaussian"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

// UncertainConfig parametrizes the synthetic uncertain generator, mirroring
// Section 5.1: object centers in [0, Domain]^Dims drawn Uniform or Skew,
// uncertainty-region radii in [RMin, RMax] drawn Uniform or Gaussian, a
// random hyper-rectangle tightly bounded by the radius sphere, and samples
// uniform within the rectangle with equal appearance probabilities.
type UncertainConfig struct {
	N       int
	Dims    int
	Domain  float64 // default 10000
	Centers Distribution
	Radii   Distribution
	RMin    float64
	RMax    float64 // default 5
	Samples int     // samples per object, default 5
	Seed    int64
	// SkewExponent shapes the Skew center distribution (default 3).
	SkewExponent float64
}

func (c *UncertainConfig) fillDefaults() {
	if c.Domain == 0 {
		c.Domain = 10000
	}
	if c.RMax == 0 {
		c.RMax = 5
	}
	if c.Samples == 0 {
		c.Samples = 5
	}
	if c.SkewExponent == 0 {
		c.SkewExponent = 3
	}
}

// EffectiveDomain is the side of the domain GenerateUncertain draws object
// centers from: Domain, or its default when unset (the family constructors
// leave it unset).
func (c UncertainConfig) EffectiveDomain() float64 {
	c.fillDefaults()
	return c.Domain
}

// Validate rejects inconsistent configurations.
func (c UncertainConfig) Validate() error {
	c.fillDefaults()
	if c.N <= 0 {
		return fmt.Errorf("dataset: N must be positive, got %d", c.N)
	}
	if c.Dims <= 0 {
		return fmt.Errorf("dataset: Dims must be positive, got %d", c.Dims)
	}
	if c.RMin < 0 || c.RMax < c.RMin {
		return fmt.Errorf("dataset: bad radius range [%v, %v]", c.RMin, c.RMax)
	}
	if c.Samples <= 0 {
		return fmt.Errorf("dataset: Samples must be positive, got %d", c.Samples)
	}
	if c.Centers != DistUniform && c.Centers != DistSkew {
		return fmt.Errorf("dataset: centers must be Uniform or Skew")
	}
	if c.Radii != DistUniform && c.Radii != DistGaussian {
		return fmt.Errorf("dataset: radii must be Uniform or Gaussian")
	}
	return nil
}

// GenerateUncertain produces a seeded synthetic uncertain dataset.
func GenerateUncertain(cfg UncertainConfig) (*Uncertain, error) {
	cfg.fillDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Regions and samples use separate streams so the pdf twin generator
	// (which draws no samples) reproduces the exact same regions.
	regionRng := rand.New(rand.NewSource(cfg.Seed))
	sampleRng := rand.New(rand.NewSource(cfg.Seed ^ 0x5DEECE66D))
	objs := make([]*uncertain.Object, cfg.N)
	for i := 0; i < cfg.N; i++ {
		region := genRegion(regionRng, cfg)
		locs := make([]geom.Point, cfg.Samples)
		for s := range locs {
			p := make(geom.Point, cfg.Dims)
			for j := 0; j < cfg.Dims; j++ {
				p[j] = region.Min[j] + sampleRng.Float64()*(region.Max[j]-region.Min[j])
			}
			locs[s] = p
		}
		objs[i] = uncertain.NewUniform(i, locs)
	}
	return &Uncertain{Objects: objs}, nil
}

// GenerateUncertainPDF produces the continuous-model twin of
// GenerateUncertain: the same seeded uncertainty regions carrying uniform or
// Gaussian densities instead of discrete samples.
func GenerateUncertainPDF(cfg UncertainConfig, kind uncertain.PDFKind) ([]*uncertain.PDFObject, error) {
	cfg.fillDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	objs := make([]*uncertain.PDFObject, cfg.N)
	for i := 0; i < cfg.N; i++ {
		region := genRegion(rng, cfg)
		// Degenerate sides break densities; give them a hair of width.
		for j := 0; j < cfg.Dims; j++ {
			if region.Max[j]-region.Min[j] < 1e-9 {
				region.Max[j] = region.Min[j] + 1e-9
			}
		}
		switch kind {
		case uncertain.Uniform:
			objs[i] = uncertain.NewUniformPDF(i, region)
		case uncertain.Gaussian:
			objs[i] = uncertain.NewGaussianPDF(i, region, nil, nil)
		default:
			return nil, fmt.Errorf("dataset: unsupported pdf kind %v", kind)
		}
	}
	return objs, nil
}

// genRegion draws one uncertainty region: a center, a radius, and a random
// hyper-rectangle tightly bounded by the sphere of that radius (its corner
// lies on the sphere), clipped to the domain.
func genRegion(rng *rand.Rand, cfg UncertainConfig) geom.Rect {
	center := make(geom.Point, cfg.Dims)
	for j := 0; j < cfg.Dims; j++ {
		u := rng.Float64()
		if cfg.Centers == DistSkew {
			u = math.Pow(u, cfg.SkewExponent)
		}
		center[j] = u * cfg.Domain
	}
	r := genRadius(rng, cfg)
	// Random corner direction on the unit sphere's positive orthant, so
	// that the half-extents e satisfy Σ e_j² = r².
	dir := make([]float64, cfg.Dims)
	var norm float64
	for j := range dir {
		v := math.Abs(rng.NormFloat64()) + 1e-9
		dir[j] = v
		norm += v * v
	}
	norm = math.Sqrt(norm)
	min := make(geom.Point, cfg.Dims)
	max := make(geom.Point, cfg.Dims)
	for j := 0; j < cfg.Dims; j++ {
		e := r * dir[j] / norm
		min[j] = clamp(center[j]-e, 0, cfg.Domain)
		max[j] = clamp(center[j]+e, 0, cfg.Domain)
	}
	return geom.Rect{Min: min, Max: max}
}

func genRadius(rng *rand.Rand, cfg UncertainConfig) float64 {
	if cfg.Radii == DistGaussian {
		mean := (cfg.RMin + cfg.RMax) / 2
		sd := (cfg.RMax - cfg.RMin) / 6
		return clamp(mean+rng.NormFloat64()*sd, cfg.RMin, cfg.RMax)
	}
	return cfg.RMin + rng.Float64()*(cfg.RMax-cfg.RMin)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Workload presets matching the paper's four synthetic uncertain dataset
// families.
var (
	// LUrU: uniform centers, uniform radii.
	LUrU = func(n, dims int, rmin, rmax float64, seed int64) UncertainConfig {
		return UncertainConfig{N: n, Dims: dims, Centers: DistUniform, Radii: DistUniform, RMin: rmin, RMax: rmax, Seed: seed}
	}
	// LUrG: uniform centers, Gaussian radii.
	LUrG = func(n, dims int, rmin, rmax float64, seed int64) UncertainConfig {
		return UncertainConfig{N: n, Dims: dims, Centers: DistUniform, Radii: DistGaussian, RMin: rmin, RMax: rmax, Seed: seed}
	}
	// LSrU: skew centers, uniform radii.
	LSrU = func(n, dims int, rmin, rmax float64, seed int64) UncertainConfig {
		return UncertainConfig{N: n, Dims: dims, Centers: DistSkew, Radii: DistUniform, RMin: rmin, RMax: rmax, Seed: seed}
	}
	// LSrG: skew centers, Gaussian radii.
	LSrG = func(n, dims int, rmin, rmax float64, seed int64) UncertainConfig {
		return UncertainConfig{N: n, Dims: dims, Centers: DistSkew, Radii: DistGaussian, RMin: rmin, RMax: rmax, Seed: seed}
	}
)
