package nlopt

import (
	"math"
	"testing"
)

// fn adapts a combined value-and-gradient function (grad nil for a value
// only) to Objective. It never screens.
type fn func(v, grad []float64) float64

func (f fn) Value(v []float64, _ float64) (float64, bool) { return f(v, nil), true }
func (f fn) Gradient(v, grad []float64)                   { f(v, grad) }

// quadratic builds a separable quadratic Σ cᵢ(vᵢ − tᵢ)².
func quadratic(c, target []float64) fn {
	return func(v []float64, grad []float64) float64 {
		var f float64
		for i := range v {
			d := v[i] - target[i]
			f += c[i] * d * d
			if grad != nil {
				grad[i] += 2 * c[i] * d
			}
		}
		return f
	}
}

func TestQuadraticBowl(t *testing.T) {
	c := []float64{1, 1, 1}
	target := []float64{3, -2, 7}
	v := []float64{0, 0, 0}
	res := CG(quadratic(c, target), v, Options{MaxIter: 200, GradTol: 1e-8})
	if !res.Converged {
		t.Errorf("did not converge: %+v", res)
	}
	for i := range v {
		if math.Abs(v[i]-target[i]) > 1e-5 {
			t.Errorf("v[%d] = %v, want %v", i, v[i], target[i])
		}
	}
}

func TestIllConditionedQuadratic(t *testing.T) {
	// Condition number 1e4: CG must still reach the optimum.
	c := []float64{1, 100, 10000}
	target := []float64{1, 2, 3}
	v := []float64{-5, 5, -5}
	res := CG(quadratic(c, target), v, Options{MaxIter: 2000, GradTol: 1e-8, StepInit: 1})
	if res.Value > 1e-6 {
		t.Errorf("residual %v too large after %d iters", res.Value, res.Iters)
	}
}

func TestRosenbrock(t *testing.T) {
	f := fn(func(v []float64, grad []float64) float64 {
		x, y := v[0], v[1]
		a := 1 - x
		b := y - x*x
		fv := a*a + 100*b*b
		if grad != nil {
			grad[0] += -2*a - 400*x*b
			grad[1] += 200 * b
		}
		return fv
	})
	v := []float64{-1.2, 1}
	res := CG(f, v, Options{MaxIter: 5000, GradTol: 1e-6, StepInit: 0.5})
	if res.Value > 1e-5 {
		t.Errorf("Rosenbrock residual %v at %v after %d iters", res.Value, v, res.Iters)
	}
}

func TestMonotoneDecrease(t *testing.T) {
	c := []float64{2, 1}
	target := []float64{4, -4}
	v := []float64{10, 10}
	prev := math.Inf(1)
	CG(quadratic(c, target), v, Options{
		MaxIter: 100,
		OnIter: func(iter int, f float64) {
			if f > prev+1e-9 {
				t.Errorf("objective rose at iter %d: %v -> %v", iter, prev, f)
			}
			prev = f
		},
	})
}

func TestProjectionRespected(t *testing.T) {
	// Minimize (v-10)² with v clamped to [0, 4]: solution sticks at 4.
	f := fn(func(v []float64, grad []float64) float64 {
		d := v[0] - 10
		if grad != nil {
			grad[0] += 2 * d
		}
		return d * d
	})
	v := []float64{0}
	res := CG(f, v, Options{
		MaxIter: 100,
		Project: func(v []float64) {
			if v[0] > 4 {
				v[0] = 4
			}
			if v[0] < 0 {
				v[0] = 0
			}
		},
	})
	if v[0] != 4 {
		t.Errorf("projected solution = %v, want 4 (result %+v)", v[0], res)
	}
}

func TestEmptyProblem(t *testing.T) {
	res := CG(fn(func(v, g []float64) float64 { return 0 }), nil, Options{})
	if !res.Converged {
		t.Error("empty problem must converge trivially")
	}
}

func TestAlreadyOptimal(t *testing.T) {
	c := []float64{1}
	target := []float64{5}
	v := []float64{5}
	res := CG(quadratic(c, target), v, Options{GradTol: 1e-9})
	if !res.Converged || res.Iters > 1 {
		t.Errorf("optimal start should converge immediately: %+v", res)
	}
}

func TestFuncEvalsCounted(t *testing.T) {
	c := []float64{1, 1}
	target := []float64{1, 1}
	v := []float64{0, 0}
	res := CG(quadratic(c, target), v, Options{MaxIter: 50})
	if res.FuncEvals < res.Iters {
		t.Errorf("FuncEvals %d < Iters %d", res.FuncEvals, res.Iters)
	}
	if res.GradEvals < 1 || res.GradEvals > res.FuncEvals {
		t.Errorf("GradEvals %d for %d FuncEvals", res.GradEvals, res.FuncEvals)
	}
}

// screening wraps an objective: Value rejects every point whose value
// exceeds the cutoff, and Gradient checks that it is asked only at the
// point of the last Value, which must have returned ok.
type screening struct {
	t        *testing.T
	f        fn
	last     []float64
	lastOK   bool
	accepted int
}

func (s *screening) Value(v []float64, cutoff float64) (float64, bool) {
	s.last = append(s.last[:0], v...)
	f := s.f(v, nil)
	s.lastOK = f <= cutoff
	return f, s.lastOK
}

func (s *screening) Gradient(v, grad []float64) {
	if !s.lastOK {
		s.t.Fatal("Gradient after a screened Value")
	}
	for i := range v {
		if math.Float64bits(v[i]) != math.Float64bits(s.last[i]) {
			s.t.Fatalf("Gradient at %v, last Value at %v", v, s.last)
		}
	}
	s.accepted++
	s.f(v, grad)
}

// TestScreenedTrialsLeaveIteratesUnchanged pins the cutoff contract:
// rejecting trials in Value instead of by the Armijo test leaves every
// iterate and the result bit-identical, and the counters split the work.
func TestScreenedTrialsLeaveIteratesUnchanged(t *testing.T) {
	c := []float64{1, 100, 10000, 3}
	target := []float64{1, 2, 3, -4}
	run := func(obj Objective) ([][]float64, Result) {
		v := []float64{-5, 5, -5, 9}
		var iters [][]float64
		opt := Options{MaxIter: 200, GradTol: 1e-8, StepInit: 4}
		opt.OnIter = func(int, float64) { iters = append(iters, append([]float64(nil), v...)) }
		res := CG(obj, v, opt)
		return append(iters, v), res
	}
	plainIt, plain := run(quadratic(c, target))
	scr := &screening{t: t, f: quadratic(c, target)}
	scrIt, screened := run(scr)
	if len(plainIt) != len(scrIt) {
		t.Fatalf("%d iterates unscreened, %d screened", len(plainIt), len(scrIt))
	}
	for k := range plainIt {
		for i := range plainIt[k] {
			if math.Float64bits(plainIt[k][i]) != math.Float64bits(scrIt[k][i]) {
				t.Fatalf("iterate %d differs: %v vs %v", k, plainIt[k], scrIt[k])
			}
		}
	}
	if math.Float64bits(plain.Value) != math.Float64bits(screened.Value) || plain.Iters != screened.Iters ||
		plain.FuncEvals != screened.FuncEvals || plain.GradEvals != screened.GradEvals {
		t.Errorf("results differ: %+v vs %+v", plain, screened)
	}
	if plain.Screened != 0 || screened.Screened == 0 {
		t.Errorf("screened trials: %d unscreened run, %d screened run", plain.Screened, screened.Screened)
	}
	if screened.GradEvals != scr.accepted {
		t.Errorf("GradEvals %d, Gradient called %d times", screened.GradEvals, scr.accepted)
	}
}

func BenchmarkCGQuadratic1000(b *testing.B) {
	n := 1000
	c := make([]float64, n)
	target := make([]float64, n)
	for i := range c {
		c[i] = 1 + float64(i%7)
		target[i] = float64(i % 13)
	}
	f := quadratic(c, target)
	for i := 0; i < b.N; i++ {
		v := make([]float64, n)
		CG(f, v, Options{MaxIter: 100, GradTol: 1e-6})
	}
}

func TestRelTolStopsOnPlateau(t *testing.T) {
	// A flat valley: f decreases negligibly after the first step, so the
	// plateau detector must stop the run early.
	f := fn(func(v, grad []float64) float64 {
		x := v[0]
		fv := 1 + 1e-9*x*x
		if grad != nil {
			grad[0] += 2e-9 * x
		}
		return fv
	})
	v := []float64{1}
	res := CG(f, v, Options{MaxIter: 500, RelTol: 1e-4, GradTol: 1e-30})
	if res.Iters > 5 {
		t.Errorf("plateau run used %d iterations", res.Iters)
	}
	if !res.Converged {
		t.Error("plateau stop should report convergence")
	}
}

func TestRelTolZeroDisablesPlateauStop(t *testing.T) {
	c := []float64{1, 100}
	target := []float64{1, 2}
	v := []float64{-3, 4}
	res := CG(quadratic(c, target), v, Options{MaxIter: 300, GradTol: 1e-10})
	if res.Value > 1e-8 {
		t.Errorf("without RelTol the run should fully converge, residual %v", res.Value)
	}
}
