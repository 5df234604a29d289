// Package bbv implements Basic Block Vectors, the program-behaviour
// fingerprint at the heart of SimPoint (Sherwood et al., ASPLOS 2002).
//
// A BBV for an execution slice counts, per static basic block, how many
// instructions that block contributed to the slice (executions × block
// length). Slices with similar BBVs execute similar code and therefore —
// this is SimPoint's empirical cornerstone — behave similarly on every
// microarchitectural metric. Vectors are L1-normalised so slices compare by
// distribution, not length, then randomly projected to a low dimension
// (SimPoint uses 15) to make k-means cheap and distance concentration
// harmless.
package bbv

import (
	"fmt"

	"specsampling/internal/isa"
	"specsampling/internal/rng"
)

// DefaultProjectedDims is SimPoint's default random-projection
// dimensionality.
const DefaultProjectedDims = 15

// Collector accumulates the BBV of the current slice. Attach Observe as the
// executor's block hook, and call Cut at slice boundaries.
type Collector struct {
	dims    int
	current []float64
	instrs  uint64
}

// NewCollector returns a collector for programs with dims static blocks.
func NewCollector(dims int) *Collector {
	return &Collector{
		dims:    dims,
		current: make([]float64, dims),
	}
}

// Observe accounts one dynamic execution of block b.
func (c *Collector) Observe(b *isa.Block) {
	c.current[b.ID] += float64(b.Len())
	c.instrs += uint64(b.Len())
}

// SliceInstrs returns the instruction count accumulated in the current
// slice so far.
func (c *Collector) SliceInstrs() uint64 { return c.instrs }

// Cut finishes the current slice, returning its raw (unnormalised) BBV and
// instruction count, and resets the collector for the next slice. Cutting an
// empty slice returns a nil vector.
func (c *Collector) Cut() ([]float64, uint64) {
	if c.instrs == 0 {
		return nil, 0
	}
	v := c.current
	n := c.instrs
	c.current = make([]float64, c.dims)
	c.instrs = 0
	return v, n
}

// NormalizeL1 scales v in place so its components sum to 1. A zero vector is
// left unchanged.
func NormalizeL1(v []float64) {
	var sum float64
	for _, x := range v {
		sum += x
	}
	if sum == 0 {
		return
	}
	inv := 1 / sum
	for i := range v {
		v[i] *= inv
	}
}

// Projector maps high-dimensional BBVs to a low dimension using a random
// matrix with entries uniform in [-1, 1], the projection SimPoint 3.0 uses.
// A Projector is deterministic in (inDims, outDims, seed).
type Projector struct {
	inDims  int
	outDims int
	// matrix is row-major [inDims][outDims].
	matrix []float64
}

// NewProjector builds a projection from inDims to outDims.
func NewProjector(inDims, outDims int, seed uint64) (*Projector, error) {
	if inDims <= 0 || outDims <= 0 {
		return nil, fmt.Errorf("bbv: invalid projection %d -> %d", inDims, outDims)
	}
	r := rng.New(seed ^ 0x9f0e7)
	m := make([]float64, inDims*outDims)
	for i := range m {
		m[i] = 2*r.Float64() - 1
	}
	return &Projector{inDims: inDims, outDims: outDims, matrix: m}, nil
}

// Project maps one vector. The input length must equal the projector's
// input dimensionality.
func (p *Projector) Project(v []float64) []float64 {
	if len(v) != p.inDims {
		panic(fmt.Sprintf("bbv: projecting %d-dim vector through %d-dim projector", len(v), p.inDims))
	}
	out := make([]float64, p.outDims)
	for i, x := range v {
		if x == 0 {
			continue
		}
		row := p.matrix[i*p.outDims : (i+1)*p.outDims]
		for j, w := range row {
			out[j] += x * w
		}
	}
	return out
}

// SqDist returns the squared Euclidean distance between equal-length
// vectors.
func SqDist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("bbv: distance between %d-dim and %d-dim vectors", len(a), len(b)))
	}
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return sum
}
