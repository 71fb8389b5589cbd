package core

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/nlopt"
)

// fencedSolver builds the finest-level solver of the small fenced test
// design the way Place does, with λ and μ initialized, and returns it
// with its packed, projected start point.
func fencedSolver(t *testing.T) (*levelSolver, []float64) {
	t.Helper()
	d := gen.MustGenerate(smallCfg())
	if len(d.Regions) == 0 {
		t.Fatal("test design has no fences")
	}
	prob, _ := lower(d)
	staggerCoincident(prob, d.Die)
	quadInit(prob, d.Die)
	staggerCoincident(prob, d.Die)
	target := math.Min(1, d.Utilization()*1.15+0.05)
	s := newLevelSolver(Config{}.withDefaults(), prob, d.Die, fixedRects(d), d.Regions, target, d.RowHeight())
	n := prob.NumObjs()
	v := make([]float64, 2*n)
	copy(v[:n], prob.X)
	copy(v[n:], prob.Y)
	s.project(v)
	s.initWeights(v)
	if s.mu == 0 {
		s.mu = s.lambda
	}
	return s, v
}

// unscreened is the same objective with every trial evaluated in full.
type unscreened struct{ s *levelSolver }

func (u unscreened) Value(v []float64, _ float64) (float64, bool) { return u.s.Value(v, math.Inf(1)) }
func (u unscreened) Gradient(v, grad []float64)                   { u.s.Gradient(v, grad) }

// classifying counts which lower bound rejected each screened trial.
type classifying struct {
	s              *levelSolver
	fence, density int
}

func (c *classifying) Value(v []float64, cutoff float64) (float64, bool) {
	f, ok := c.s.Value(v, cutoff)
	if !ok {
		n := c.s.p.NumObjs()
		if float64(c.s.mu*c.s.fencePenalty(v[:n], v[n:], nil, nil))-c.s.slack > cutoff {
			c.fence++
		} else {
			c.density++
		}
	}
	return f, ok
}

func (c *classifying) Gradient(v, grad []float64) { c.s.Gradient(v, grad) }

// TestScreeningLeavesCGIteratesBitIdentical runs CG on fenced level
// problems twice, with the line-search cutoff and with cutoff = +Inf, and
// requires bitwise-identical iterates, objective values and results, over
// weight regimes where the fence and the density bound each reject.
func TestScreeningLeavesCGIteratesBitIdentical(t *testing.T) {
	s, v0 := fencedSolver(t)
	lambda, mu := s.lambda, s.mu
	cls := &classifying{s: s}
	for _, w := range []struct{ lambda, mu float64 }{{1, 1}, {1, 4096}, {1, 1 << 24}, {256, 64}, {4096, 64}, {65536, 1}} {
		s.lambda, s.mu = lambda*w.lambda, mu*w.mu
		run := func(obj nlopt.Objective) ([][]float64, nlopt.Result) {
			v := append([]float64(nil), v0...)
			var iters [][]float64
			res := nlopt.CG(obj, v, nlopt.Options{
				MaxIter: 25, GradTol: 1e-9, StepInit: (s.grid.BinW + s.grid.BinH) / 2, Project: s.project,
				OnIter: func(_ int, f float64) {
					iters = append(iters, append([]float64{f}, v...))
				},
			})
			return append(iters, v), res
		}
		plainIt, plain := run(unscreened{s})
		scrIt, scr := run(cls)
		if len(plainIt) != len(scrIt) {
			t.Fatalf("λ×%v μ×%v: %d iterates unscreened, %d screened", w.lambda, w.mu, len(plainIt), len(scrIt))
		}
		for k := range plainIt {
			for i := range plainIt[k] {
				if math.Float64bits(plainIt[k][i]) != math.Float64bits(scrIt[k][i]) {
					t.Fatalf("λ×%v μ×%v: iterate %d differs at %d: %v vs %v", w.lambda, w.mu, k, i, plainIt[k][i], scrIt[k][i])
				}
			}
		}
		if math.Float64bits(plain.Value) != math.Float64bits(scr.Value) || plain.Iters != scr.Iters ||
			plain.FuncEvals != scr.FuncEvals || plain.GradEvals != scr.GradEvals || plain.Screened != 0 {
			t.Fatalf("λ×%v μ×%v: results differ: %+v vs %+v", w.lambda, w.mu, plain, scr)
		}
		t.Logf("λ×%v μ×%v: %d iters, %d trials, %d screened (fence %d, density %d so far)", w.lambda, w.mu, scr.Iters, scr.FuncEvals-1, scr.Screened, cls.fence, cls.density)
	}
	if cls.fence == 0 || cls.density == 0 {
		t.Errorf("screened trials: %d on the fence bound, %d on the density bound; want both", cls.fence, cls.density)
	}
}

// TestValueScreensOnlyAboveCutoff checks the Value contract point by
// point: with any cutoff at or above f(v), including f(v) itself, Value
// returns ok and the unscreened value's exact bits, and it screens a
// cutoff that a dominant fence or density term alone exceeds.
func TestValueScreensOnlyAboveCutoff(t *testing.T) {
	s, v0 := fencedSolver(t)
	lambda, mu := s.lambda, s.mu
	n := len(v0) / 2
	screened := 0
	for _, w := range []struct{ lambda, mu float64 }{{1, 1}, {1, 1 << 24}, {1 << 24, 1}, {1 << 20, 1 << 20}} {
		s.lambda, s.mu = lambda*w.lambda, mu*w.mu
		for k := 0; k < 8; k++ {
			v := append([]float64(nil), v0...)
			for i := range v {
				v[i] += float64((i*7+k*13)%11-5) * float64(k) * 0.37
			}
			s.project(v)
			f, ok := s.Value(v, math.Inf(1))
			if !ok {
				t.Fatal("Value screened against +Inf")
			}
			for _, cutoff := range []float64{f, math.Nextafter(f, math.Inf(1)), f * (1 + 1e-9), f * 2} {
				got, ok := s.Value(v, cutoff)
				if !ok || math.Float64bits(got) != math.Float64bits(f) {
					t.Fatalf("λ×%v μ×%v point %d: Value(cutoff %v) = %v, %v; unscreened %v", w.lambda, w.mu, k, cutoff, got, ok, f)
				}
			}
			// A cutoff below what the cheap terms alone add up to must
			// be screened.
			fence := float64(s.mu * s.fencePenalty(v[:n], v[n:], nil, nil))
			dens := float64(s.lambda * s.grid.Value(s.objs, v[:n], v[n:]))
			if low := 0.5 * (fence + dens); low > 0 {
				if _, ok := s.Value(v, low); ok {
					t.Fatalf("λ×%v μ×%v point %d: cutoff %v below fence %v + density %v not screened", w.lambda, w.mu, k, low, fence, dens)
				}
				screened++
			}
		}
	}
	if screened == 0 {
		t.Fatal("no point had a positive fence or density term")
	}
}
