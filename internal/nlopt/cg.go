// Package nlopt provides the nonlinear conjugate-gradient solver that
// drives analytical global placement: Polak–Ribière+ directions with
// automatic restarts, an Armijo backtracking line search with adaptive
// initial step, and an optional projection hook that the placer uses to
// keep object centers inside the die after every step.
package nlopt

import (
	"math"
)

// Objective is what CG minimizes. The line search asks only whether a
// trial point is good enough, so the value comes with a cutoff, and the
// gradient is requested only at accepted points, where Value has just
// done most of the work.
type Objective interface {
	// Value returns f(v). It may stop early and return ok=false once it
	// has proved f(v) > cutoff; f is then meaningless. With ok=true, f
	// must be exactly what an unscreened evaluation would return, so a
	// cutoff never changes which trial the line search accepts. With
	// cutoff = +Inf, Value always returns ok.
	Value(v []float64, cutoff float64) (f float64, ok bool)
	// Gradient writes ∇f(v) into grad (grad arrives zeroed). v is the
	// point of the immediately preceding Value call, which returned ok,
	// so an implementation may reuse what that call computed.
	Gradient(v, grad []float64)
}

// Options tunes the CG run. Zero values select reasonable defaults.
type Options struct {
	// MaxIter bounds the number of CG iterations (default 300).
	MaxIter int
	// GradTol stops the run when the gradient ∞-norm falls below it
	// (default 1e-6).
	GradTol float64
	// RelTol, when positive, stops the run once the per-iteration relative
	// objective decrease falls below it — the cheap plateau detector the
	// placer uses to avoid burning iterations at a converged λ round.
	RelTol float64
	// StepInit is the first trial step length (default 1). Each
	// iteration's first trial moves the largest coordinate by the current
	// step budget, which doubles after every accepted step up to
	// 16·StepInit and is quartered after a stalled line search. The budget
	// does not follow the accepted step: an iteration that backtracked
	// still starts the next one from the (doubled) budget.
	StepInit float64
	// MaxBacktrack bounds the Armijo halvings per iteration (default 30).
	MaxBacktrack int
	// ArmijoC is the sufficient-decrease constant (default 1e-4).
	ArmijoC float64
	// Project, when non-nil, is applied to the iterate after every
	// accepted step (e.g. clamping into the die). Projection composes
	// with the line search: the Armijo test is evaluated at the projected
	// point.
	Project func(v []float64)
	// OnIter, when non-nil, is called after every iteration with the
	// iteration index and current objective value; placement experiments
	// use it to record convergence traces.
	OnIter func(iter int, f float64)
	// Stop, when non-nil, is polled once per iteration before any work;
	// returning true aborts the run with the current iterate intact. The
	// placer wires context cancellation through it so a canceled job
	// returns at CG-iteration granularity. A Stop that never fires does
	// not perturb the trajectory, so results are unchanged when unused.
	Stop func() bool
}

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 300
	}
	if o.GradTol <= 0 {
		o.GradTol = 1e-6
	}
	if o.StepInit <= 0 {
		o.StepInit = 1
	}
	if o.MaxBacktrack <= 0 {
		o.MaxBacktrack = 30
	}
	if o.ArmijoC <= 0 {
		o.ArmijoC = 1e-4
	}
	return o
}

// Result reports the outcome of a CG run.
type Result struct {
	Value float64
	Iters int
	// FuncEvals counts Value calls: the one at the start point and one
	// per line-search trial, screened or not.
	FuncEvals int
	// GradEvals counts Gradient calls: the start point and every
	// accepted step.
	GradEvals int
	// Screened counts the trials Value rejected against their cutoff
	// (ok=false) before finishing the evaluation.
	Screened int
	// Converged is true when the gradient tolerance was met (as opposed
	// to stopping on MaxIter or a stalled line search).
	Converged bool
}

func infNorm(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// CG minimizes f starting from v (modified in place) and returns the run
// summary. The method is Polak–Ribière+ nonlinear CG: the direction is
// reset to steepest descent whenever β < 0 or the direction loses descent,
// which makes it globally convergent on the nonconvex placement
// objectives it is used for. Each trial passes its Armijo threshold to
// f.Value as the cutoff; an accepted trial's value becomes the new f(v)
// and only its gradient is computed.
func CG(f Objective, v []float64, opt Options) Result {
	opt = opt.withDefaults()
	n := len(v)
	res := Result{}
	if n == 0 {
		res.Converged = true
		return res
	}

	grad := make([]float64, n)
	prevGrad := make([]float64, n)
	dir := make([]float64, n)
	trial := make([]float64, n)

	fv, _ := f.Value(v, math.Inf(1))
	res.FuncEvals++
	f.Gradient(v, grad)
	res.GradEvals++
	for i := range dir {
		dir[i] = -grad[i]
	}
	step := opt.StepInit

	for iter := 0; iter < opt.MaxIter; iter++ {
		if opt.Stop != nil && opt.Stop() {
			break
		}
		res.Iters = iter + 1
		gnorm := infNorm(grad)
		if gnorm <= opt.GradTol {
			res.Converged = true
			break
		}
		// Ensure a descent direction; restart on failure.
		dd := dot(dir, grad)
		if dd >= 0 {
			for i := range dir {
				dir[i] = -grad[i]
			}
			dd = -dot(grad, grad)
		}
		// Scale the trial step so the largest coordinate move is about
		// `step` units; this keeps the search robust to gradient
		// magnitude swings as the density weight grows.
		dmax := infNorm(dir)
		if dmax == 0 {
			res.Converged = true
			break
		}
		alpha := step / dmax
		accepted := false
		var fNew float64
		for bt := 0; bt < opt.MaxBacktrack; bt++ {
			for i := range trial {
				trial[i] = v[i] + alpha*dir[i]
			}
			if opt.Project != nil {
				opt.Project(trial)
			}
			cutoff := fv + opt.ArmijoC*alpha*dd
			var ok bool
			fNew, ok = f.Value(trial, cutoff)
			res.FuncEvals++
			if !ok {
				res.Screened++
			} else if fNew <= cutoff {
				accepted = true
				break
			}
			alpha /= 2
		}
		if !accepted {
			// Line search stalled: tighten the step budget and retry from
			// steepest descent next round; if the step is already tiny,
			// declare convergence to the achievable precision.
			step /= 4
			for i := range dir {
				dir[i] = -grad[i]
			}
			if step < 1e-12 {
				break
			}
			continue
		}
		copy(v, trial)
		copy(prevGrad, grad)
		for i := range grad {
			grad[i] = 0
		}
		fPrev := fv
		fv = fNew
		f.Gradient(v, grad)
		res.GradEvals++
		if opt.RelTol > 0 && fPrev-fv < opt.RelTol*(math.Abs(fPrev)+1e-30) {
			if opt.OnIter != nil {
				opt.OnIter(iter, fv)
			}
			res.Converged = true
			break
		}
		if opt.OnIter != nil {
			opt.OnIter(iter, fv)
		}
		// Polak–Ribière+ β with automatic restart.
		var num, den float64
		for i := range grad {
			num += grad[i] * (grad[i] - prevGrad[i])
			den += prevGrad[i] * prevGrad[i]
		}
		beta := 0.0
		if den > 0 {
			beta = num / den
		}
		if beta < 0 {
			beta = 0
		}
		for i := range dir {
			dir[i] = -grad[i] + beta*dir[i]
		}
		// Grow the step budget after a clean acceptance.
		step = math.Min(step*2, opt.StepInit*16)
	}
	res.Value = fv
	return res
}
