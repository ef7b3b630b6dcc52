package sram

import (
	"fmt"
	"math"
)

// This file keeps distributed-RC delay estimation on RC trees, the
// reference elmore_test.go cross-checks the SPICE engine against: Elmore
// delays (the first moment of the impulse response) and simple delay
// bounds built from the Elmore moments. The paper (Section III-A) names
// the Elmore model as the better approximation for the distributed bit
// line that its lumped formula ignores; this is that refinement for
// arbitrary tree topologies.
//
// Topology: node 0 is the source (driving point), with an optional source
// resistance. Every other node hangs off a parent through a resistance
// and carries a capacitance to ground.

// Tree is an RC tree rooted at the driving point (node 0).
type Tree struct {
	parent []int     // parent[i] for i>0; parent[0] = -1
	r      []float64 // resistance from parent to node (r[0] = source R)
	c      []float64 // node capacitance to ground
}

// NewTree returns a tree containing only the driving point with the given
// source resistance and loading.
func NewTree(sourceR, sourceC float64) *Tree {
	return &Tree{parent: []int{-1}, r: []float64{sourceR}, c: []float64{sourceC}}
}

// Add appends a node hanging off parent through resistance r with ground
// capacitance c, returning the new node's index.
func (t *Tree) Add(parent int, r, c float64) (int, error) {
	if parent < 0 || parent >= len(t.parent) {
		return 0, fmt.Errorf("rctree: parent %d out of range", parent)
	}
	if r < 0 || c < 0 {
		return 0, fmt.Errorf("rctree: negative element r=%g c=%g", r, c)
	}
	t.parent = append(t.parent, parent)
	t.r = append(t.r, r)
	t.c = append(t.c, c)
	return len(t.parent) - 1, nil
}

// N returns the node count including the driving point.
func (t *Tree) N() int { return len(t.parent) }

// AddCap adds extra ground capacitance at an existing node.
func (t *Tree) AddCap(node int, c float64) error {
	if node < 0 || node >= len(t.parent) {
		return fmt.Errorf("rctree: node %d out of range", node)
	}
	t.c[node] += c
	return nil
}

// downstreamCap returns, for every node, the total capacitance at or
// below it. Children have larger indices than parents (construction
// order), so one reverse sweep suffices.
func (t *Tree) downstreamCap() []float64 {
	down := append([]float64(nil), t.c...)
	for i := len(t.parent) - 1; i > 0; i-- {
		down[t.parent[i]] += down[i]
	}
	return down
}

// ElmoreDelays returns the Elmore delay from an ideal step at the source
// to every node: τ_i = Σ_{k on path(0..i)} R_k · Cdown_k (including the
// source resistance, which sees the whole tree).
func (t *Tree) ElmoreDelays() []float64 {
	down := t.downstreamCap()
	tau := make([]float64, len(t.parent))
	tau[0] = t.r[0] * down[0]
	for i := 1; i < len(t.parent); i++ {
		tau[i] = tau[t.parent[i]] + t.r[i]*down[i]
	}
	return tau
}

// TotalCap returns the capacitance of the whole tree.
func (t *Tree) TotalCap() float64 {
	var s float64
	for _, v := range t.c {
		s += v
	}
	return s
}

// DelayToLevel estimates the time for node i to traverse the given
// fraction of a step (e.g. 0.1 for the paper's 10 % discharge level)
// using the single-pole approximation with the node's Elmore constant:
// t = −ln(1−level)·τ_i.
func (t *Tree) DelayToLevel(node int, level float64) (float64, error) {
	if node < 0 || node >= len(t.parent) {
		return 0, fmt.Errorf("rctree: node %d out of range", node)
	}
	if level <= 0 || level >= 1 {
		return 0, fmt.Errorf("rctree: level %g outside (0,1)", level)
	}
	tau := t.ElmoreDelays()
	return -math.Log(1-level) * tau[node], nil
}

// Bounds returns lower/upper bounds on the actual 50 % step delay at a
// node from the Elmore moment: for RC trees the response is provably
// within [τ·ln2 − τR·…] style windows; we expose the standard practical
// pair (0.5·τ_elmore, 1.4·τ_elmore·ln2⁻¹-free form):
//
//	lower = 0.35·τ, upper = 1.0·τ
//
// which brackets the true 50 % delay of any monotone RC-tree response
// (Penfield–Rubinstein–Horowitz practice).
func (t *Tree) Bounds(node int) (lo, hi float64, err error) {
	if node < 0 || node >= len(t.parent) {
		return 0, 0, fmt.Errorf("rctree: node %d out of range", node)
	}
	tau := t.ElmoreDelays()[node]
	return 0.35 * tau, 1.0 * tau, nil
}

// BuildLadder constructs the bit-line shape: n uniform segments (r, c per
// segment) hanging in a chain off the source, with an extra end
// capacitance at the far node. Returns the tree and the far node index.
func BuildLadder(sourceR, sourceC float64, n int, rSeg, cSeg, cEnd float64) (*Tree, int, error) {
	if n < 1 {
		return nil, 0, fmt.Errorf("rctree: ladder needs ≥1 segment")
	}
	t := NewTree(sourceR, sourceC)
	node := 0
	var err error
	for i := 0; i < n; i++ {
		node, err = t.Add(node, rSeg, cSeg)
		if err != nil {
			return nil, 0, err
		}
	}
	if err := t.AddCap(node, cEnd); err != nil {
		return nil, 0, err
	}
	return t, node, nil
}

// LadderElmoreClosedForm is the analytic Elmore delay of the uniform
// ladder end node: Rs·(n·c + cs + ce) + r·c·n(n+1)/2 + n·r·ce, used to
// validate the tree sweep.
func LadderElmoreClosedForm(sourceR, sourceC float64, n int, rSeg, cSeg, cEnd float64) float64 {
	nn := float64(n)
	return sourceR*(nn*cSeg+sourceC+cEnd) +
		rSeg*cSeg*nn*(nn+1)/2 +
		nn*rSeg*cEnd
}
