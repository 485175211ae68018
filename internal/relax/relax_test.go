package relax

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestMcCormickSandwich(t *testing.T) {
	xb := Interval{Lo: -1, Hi: 2}
	yb := Interval{Lo: 0.5, Hi: 3}
	under, over, err := McCormick(xb, yb)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64) bool {
		r := rng.New(seed)
		x := r.Uniform(xb.Lo, xb.Hi)
		y := r.Uniform(yb.Lo, yb.Hi)
		w := x * y
		for _, u := range under {
			if u.Eval(x, y) > w+1e-9 {
				return false
			}
		}
		for _, o := range over {
			if o.Eval(x, y) < w-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMcCormickTightAtCorners(t *testing.T) {
	xb := Interval{Lo: -2, Hi: 1}
	yb := Interval{Lo: -1, Hi: 4}
	under, over, err := McCormick(xb, yb)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{xb.Lo, xb.Hi} {
		for _, y := range []float64{yb.Lo, yb.Hi} {
			w := x * y
			maxU := math.Inf(-1)
			for _, u := range under {
				maxU = math.Max(maxU, u.Eval(x, y))
			}
			minO := math.Inf(1)
			for _, o := range over {
				minO = math.Min(minO, o.Eval(x, y))
			}
			if math.Abs(maxU-w) > 1e-9 || math.Abs(minO-w) > 1e-9 {
				t.Fatalf("corner (%g,%g): under %g, over %g, want both %g", x, y, maxU, minO, w)
			}
		}
	}
}

func TestMcCormickInvalidInterval(t *testing.T) {
	if _, _, err := McCormick(Interval{Lo: 1, Hi: 0}, Interval{Lo: 0, Hi: 1}); !errors.Is(err, ErrBadInterval) {
		t.Fatalf("want ErrBadInterval, got %v", err)
	}
}

func TestMcCormickBounds(t *testing.T) {
	iv, err := McCormickBounds(Interval{Lo: -1, Hi: 2}, Interval{Lo: -3, Hi: 4})
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo != -6 || iv.Hi != 8 {
		t.Fatalf("bounds = [%g, %g], want [-6, 8]", iv.Lo, iv.Hi)
	}
}

func TestSquareEnvelope(t *testing.T) {
	e, err := NewSquareEnvelope(Interval{Lo: -1, Hi: 3})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64) bool {
		r := rng.New(seed)
		x := r.Uniform(-1, 3)
		sq := x * x
		// Secant over-estimates.
		if e.Secant.Eval(x) < sq-1e-9 {
			return false
		}
		// Tangents under-estimate.
		for _, p := range []float64{-1, 0, 1, 3} {
			if e.TangentAt(p).Eval(x) > sq+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// Gap attained at midpoint: (u-l)²/4 = 4.
	mid := 1.0
	if g := e.Secant.Eval(mid) - mid*mid; math.Abs(g-e.Gap()) > 1e-9 {
		t.Fatalf("midpoint gap %v, reported %v", g, e.Gap())
	}
}

func TestReLUCases(t *testing.T) {
	dead, err := NewReLURelaxation(Interval{Lo: -3, Hi: -1})
	if err != nil {
		t.Fatal(err)
	}
	if dead.Kind != ReLUDead || dead.OutBounds() != (Interval{}) {
		t.Fatalf("dead case wrong: %+v", dead)
	}
	active, _ := NewReLURelaxation(Interval{Lo: 1, Hi: 4})
	if active.Kind != ReLUActive || active.OutBounds() != (Interval{Lo: 1, Hi: 4}) {
		t.Fatalf("active case wrong: %+v", active)
	}
	unstable, _ := NewReLURelaxation(Interval{Lo: -2, Hi: 4})
	if unstable.Kind != ReLUUnstable {
		t.Fatalf("unstable case wrong: %+v", unstable)
	}
	if ob := unstable.OutBounds(); ob.Lo != 0 || ob.Hi != 4 {
		t.Fatalf("unstable out bounds: %+v", ob)
	}
}

func TestReLUTriangleSandwich(t *testing.T) {
	r, err := NewReLURelaxation(Interval{Lo: -2, Hi: 3})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64) bool {
		rn := rng.New(seed)
		x := rn.Uniform(-2, 3)
		y := math.Max(0, x)
		return r.LowerAt(x) <= y+1e-12 && r.UpperAt(x) >= y-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	// Upper edge exact at the interval endpoints.
	if math.Abs(r.UpperAt(-2)-0) > 1e-12 || math.Abs(r.UpperAt(3)-3) > 1e-12 {
		t.Fatalf("triangle not tight at endpoints: %v, %v", r.UpperAt(-2), r.UpperAt(3))
	}
	// Area gap ½·2·3 = 3.
	if math.Abs(r.AreaGap()-3) > 1e-12 {
		t.Fatalf("area gap = %v, want 3", r.AreaGap())
	}
	if dead, _ := NewReLURelaxation(Interval{Lo: -2, Hi: -1}); dead.AreaGap() != 0 {
		t.Fatal("stable neuron should have zero gap")
	}
}

func TestReLUGapShrinksWithTighterBounds(t *testing.T) {
	wide, _ := NewReLURelaxation(Interval{Lo: -4, Hi: 4})
	tight, _ := NewReLURelaxation(Interval{Lo: -1, Hi: 1})
	if tight.AreaGap() >= wide.AreaGap() {
		t.Fatalf("tightening bounds did not shrink the gap: %v vs %v", tight.AreaGap(), wide.AreaGap())
	}
}

func TestTangentEnvelopeDominatesConcave(t *testing.T) {
	f := func(x float64) float64 { return math.Log1p(x) }
	df := func(x float64) float64 { return 1 / (1 + x) }
	env, err := NewTangentEnvelope(f, df, Interval{Lo: 0, Hi: 10}, 6)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(seed uint64) bool {
		r := rng.New(seed)
		x := r.Uniform(0, 10)
		return env.Eval(x) >= f(x)-1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// Exact at tangent points (midpoints of 6 equal subintervals).
	for i := 0; i < 6; i++ {
		p := 10 * (float64(i) + 0.5) / 6
		if d := env.Eval(p) - f(p); math.Abs(d) > 1e-12 {
			t.Fatalf("envelope not tight at tangent point %v: gap %v", p, d)
		}
	}
}

func TestTangentEnvelopeGapShrinks(t *testing.T) {
	f := func(x float64) float64 { return math.Log1p(x) }
	df := func(x float64) float64 { return 1 / (1 + x) }
	coarse, err := NewTangentEnvelope(f, df, Interval{Lo: 0, Hi: 10}, 3)
	if err != nil {
		t.Fatal(err)
	}
	fine, err := NewTangentEnvelope(f, df, Interval{Lo: 0, Hi: 10}, 12)
	if err != nil {
		t.Fatal(err)
	}
	if fine.MaxGap(f, 200) >= coarse.MaxGap(f, 200) {
		t.Fatalf("more tangents should shrink the max gap: %v vs %v",
			fine.MaxGap(f, 200), coarse.MaxGap(f, 200))
	}
}

func TestTangentEnvelopeValidation(t *testing.T) {
	f := func(x float64) float64 { return x }
	if _, err := NewTangentEnvelope(f, f, Interval{Lo: 1, Hi: 0}, 3); !errors.Is(err, ErrBadInterval) {
		t.Fatal("crossed interval should fail")
	}
	if _, err := NewTangentEnvelope(f, f, Interval{Lo: 0, Hi: 1}, 0); err == nil {
		t.Fatal("zero tangents should fail")
	}
}
