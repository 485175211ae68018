// Package relax implements the convex-relaxation toolbox at the center of
// the paper's RCR framework: convex under-estimators and concave
// over-estimators (envelopes) for the nonlinear atoms that appear in the
// QoS MINLPs and in neural-network verification — bilinear terms
// (McCormick), squares, and the ReLU "triangle" relaxation. It is a leaf:
// internal/prob's McCormick pass builds its rows from these envelopes, and
// the rank-minimization → trace-minimization → SDP pipeline of the paper's
// Eqs. 8–10 lives in internal/prob (DecomposeDiagLowRank).
package relax

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadInterval is returned when an interval has Lo > Hi.
var ErrBadInterval = errors.New("relax: interval lower bound exceeds upper bound")

// Interval is a closed interval [Lo, Hi].
type Interval struct {
	Lo, Hi float64
}

// Valid reports whether Lo <= Hi.
func (iv Interval) Valid() bool { return iv.Lo <= iv.Hi }

// Contains reports whether x lies in the interval.
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// Width returns Hi - Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Affine2 is the plane a·x + b·y + c used to describe bilinear envelopes.
type Affine2 struct {
	A, B, C float64
}

// Eval returns a·x + b·y + c.
func (p Affine2) Eval(x, y float64) float64 { return p.A*x + p.B*y + p.C }

// McCormick returns the convex under-estimators and concave over-estimators
// of the bilinear term w = x·y over the box xb×yb. The envelope is exact at
// the box corners; the relaxation gap at the center is (xb.Width·yb.Width)/4.
func McCormick(xb, yb Interval) (under, over []Affine2, err error) {
	if !xb.Valid() || !yb.Valid() {
		return nil, nil, fmt.Errorf("%w: x=[%g,%g] y=[%g,%g]", ErrBadInterval, xb.Lo, xb.Hi, yb.Lo, yb.Hi)
	}
	under = []Affine2{
		{A: yb.Lo, B: xb.Lo, C: -xb.Lo * yb.Lo},
		{A: yb.Hi, B: xb.Hi, C: -xb.Hi * yb.Hi},
	}
	over = []Affine2{
		{A: yb.Lo, B: xb.Hi, C: -xb.Hi * yb.Lo},
		{A: yb.Hi, B: xb.Lo, C: -xb.Lo * yb.Hi},
	}
	return under, over, nil
}

// McCormickBounds returns the interval enclosure of x·y implied by the
// McCormick envelopes over the box (equivalently, interval multiplication).
func McCormickBounds(xb, yb Interval) (Interval, error) {
	if !xb.Valid() || !yb.Valid() {
		return Interval{}, fmt.Errorf("%w", ErrBadInterval)
	}
	c := []float64{xb.Lo * yb.Lo, xb.Lo * yb.Hi, xb.Hi * yb.Lo, xb.Hi * yb.Hi}
	lo, hi := c[0], c[0]
	for _, v := range c[1:] {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return Interval{Lo: lo, Hi: hi}, nil
}

// Affine1 is the line a·x + c used for univariate envelopes.
type Affine1 struct {
	A, C float64
}

// Eval returns a·x + c.
func (l Affine1) Eval(x float64) float64 { return l.A*x + l.C }

// SquareEnvelope describes the envelope of y = x² on an interval: the
// convex envelope is x² itself (represented by tangent cuts on demand);
// the concave envelope is the secant.
type SquareEnvelope struct {
	X Interval
	// Secant is the concave over-estimator (l+u)x - lu.
	Secant Affine1
}

// NewSquareEnvelope builds the envelope of x² over x in xb.
func NewSquareEnvelope(xb Interval) (*SquareEnvelope, error) {
	if !xb.Valid() {
		return nil, fmt.Errorf("%w: [%g,%g]", ErrBadInterval, xb.Lo, xb.Hi)
	}
	return &SquareEnvelope{
		X:      xb,
		Secant: Affine1{A: xb.Lo + xb.Hi, C: -xb.Lo * xb.Hi},
	}, nil
}

// TangentAt returns the tangent under-estimator of x² at point p:
// 2p·x - p². Any p in the interval yields a valid convex cut.
func (e *SquareEnvelope) TangentAt(p float64) Affine1 {
	return Affine1{A: 2 * p, C: -p * p}
}

// Gap returns the worst-case distance between the concave over-estimator
// and x², attained at the midpoint: (u-l)²/4.
func (e *SquareEnvelope) Gap() float64 {
	w := e.X.Width()
	return w * w / 4
}

// ReLUKind classifies the triangle relaxation of y = max(0, x) given
// pre-activation bounds.
type ReLUKind int

// Triangle relaxation cases.
const (
	// ReLUDead: u <= 0, so y is identically 0.
	ReLUDead ReLUKind = iota + 1
	// ReLUActive: l >= 0, so y = x exactly.
	ReLUActive
	// ReLUUnstable: l < 0 < u; the triangle relaxation applies.
	ReLUUnstable
)

// ReLURelaxation is the convex hull of {(x, max(0,x)) : l <= x <= u}.
// For the unstable case the feasible set is
//
//	y >= 0,  y >= x,  y <= Slope·x + Offset
//
// with Slope = u/(u-l) and Offset = -l·u/(u-l) — the upper "triangle" edge.
type ReLURelaxation struct {
	Kind          ReLUKind
	X             Interval
	Slope, Offset float64 // upper edge; meaningful for ReLUUnstable
}

// NewReLURelaxation builds the triangle relaxation for pre-activation
// bounds xb.
func NewReLURelaxation(xb Interval) (*ReLURelaxation, error) {
	if !xb.Valid() {
		return nil, fmt.Errorf("%w: [%g,%g]", ErrBadInterval, xb.Lo, xb.Hi)
	}
	r := &ReLURelaxation{X: xb}
	switch {
	case xb.Hi <= 0:
		r.Kind = ReLUDead
	case xb.Lo >= 0:
		r.Kind = ReLUActive
	default:
		r.Kind = ReLUUnstable
		r.Slope = xb.Hi / (xb.Hi - xb.Lo)
		r.Offset = -xb.Lo * xb.Hi / (xb.Hi - xb.Lo)
	}
	return r, nil
}

// OutBounds returns the post-activation interval implied by the relaxation.
func (r *ReLURelaxation) OutBounds() Interval {
	switch r.Kind {
	case ReLUDead:
		return Interval{Lo: 0, Hi: 0}
	case ReLUActive:
		return r.X
	default:
		return Interval{Lo: 0, Hi: r.X.Hi}
	}
}

// UpperAt evaluates the upper envelope at x.
func (r *ReLURelaxation) UpperAt(x float64) float64 {
	switch r.Kind {
	case ReLUDead:
		return 0
	case ReLUActive:
		return x
	default:
		return r.Slope*x + r.Offset
	}
}

// LowerAt evaluates the tightest lower envelope max(0, x) — for the
// unstable case the convex hull's lower boundary is exactly the ReLU.
func (r *ReLURelaxation) LowerAt(x float64) float64 {
	if r.Kind == ReLUDead {
		return 0
	}
	return math.Max(0, x)
}

// AreaGap returns the area between the upper and lower envelopes — the
// standard measure of relaxation looseness that the RCR bound-tightening
// loop drives down. Zero for stable (dead/active) neurons; else the
// triangle area ½·|l|·u.
func (r *ReLURelaxation) AreaGap() float64 {
	if r.Kind != ReLUUnstable {
		return 0
	}
	return 0.5 * (-r.X.Lo) * r.X.Hi
}

// TangentEnvelope is a piecewise-linear over-estimator of a concave
// function on an interval, built from tangent lines: because tangents of a
// concave function lie above it everywhere, their pointwise minimum is a
// convex-side relaxation that touches the function at each tangent point.
// It is the generic form of the cuts the continuous-power RRA solver uses
// for the Shannon rate.
type TangentEnvelope struct {
	X    Interval
	Cuts []Affine1
}

// NewTangentEnvelope samples k tangents of the concave function f (with
// derivative df) at midpoints of k equal subintervals of xb.
func NewTangentEnvelope(f, df func(float64) float64, xb Interval, k int) (*TangentEnvelope, error) {
	if !xb.Valid() || xb.Width() <= 0 {
		return nil, fmt.Errorf("%w: [%g,%g]", ErrBadInterval, xb.Lo, xb.Hi)
	}
	if k < 1 {
		return nil, fmt.Errorf("relax: need at least one tangent, got %d", k)
	}
	e := &TangentEnvelope{X: xb}
	for i := 0; i < k; i++ {
		p := xb.Lo + xb.Width()*(float64(i)+0.5)/float64(k)
		slope := df(p)
		e.Cuts = append(e.Cuts, Affine1{A: slope, C: f(p) - slope*p})
	}
	return e, nil
}

// Eval returns the envelope value min over cuts at x.
func (e *TangentEnvelope) Eval(x float64) float64 {
	best := math.Inf(1)
	for _, c := range e.Cuts {
		if v := c.Eval(x); v < best {
			best = v
		}
	}
	return best
}

// MaxGap samples the envelope-minus-function gap on a grid and returns the
// largest value — the relaxation looseness measure for this envelope.
func (e *TangentEnvelope) MaxGap(f func(float64) float64, grid int) float64 {
	if grid < 2 {
		grid = 64
	}
	var worst float64
	for i := 0; i <= grid; i++ {
		x := e.X.Lo + e.X.Width()*float64(i)/float64(grid)
		if g := e.Eval(x) - f(x); g > worst {
			worst = g
		}
	}
	return worst
}
