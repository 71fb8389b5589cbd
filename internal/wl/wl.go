// Package wl implements the wirelength models used by analytical global
// placement: the exact half-perimeter wirelength (HPWL), the classical
// log-sum-exp (LSE) smooth approximation, and the weighted-average (WA)
// model this paper family introduced. Both smooth models come with
// analytic gradients and a max-shift scheme that keeps the exponentials
// numerically stable for any coordinate magnitude.
//
// The models operate on a lightweight view of the netlist: movable objects
// are identified by index into flat coordinate arrays (their centers), and
// each net pin is either an offset from a movable object or an absolute
// fixed location. The global placer lowers the db.Design (or a clustered
// version of it) into this view once per level and then evaluates
// gradients thousands of times without touching the database.
//
// Model bracketing: for every net, WA ≤ HPWL ≤ LSE, and both smooth models
// converge to HPWL as the smoothing parameter γ → 0. The property tests
// pin these inequalities down; the WA model's tighter error bound is the
// theoretical selling point reproduced by experiment T3.
package wl

import (
	"math"
)

// PinRef locates one pin of a net. For movable pins, Obj is the index of
// the owning object and Off* the pin offset from the object's center. For
// fixed pins, Obj is Fixed and Off* hold the absolute pin position.
type PinRef struct {
	Obj        int
	OffX, OffY float64
}

// Fixed marks a PinRef that does not move with any object.
const Fixed = -1

// Net is one hyperedge over the flat object view.
type Net struct {
	Weight float64
	Pins   []PinRef
}

// Netlist is the flattened connectivity a Model evaluates.
type Netlist struct {
	Nets []Net
	// NumObjs is the length of the coordinate arrays the nets refer to.
	NumObjs int
}

// Model is a differentiable wirelength approximation. Eval returns the
// total weighted wirelength and adds ∂WL/∂x and ∂WL/∂y into gx and gy
// (callers zero them first when they want a pure wirelength gradient).
type Model interface {
	Eval(nl *Netlist, x, y []float64, gx, gy []float64) float64
	Name() string
}

// pinX returns the x coordinate of pin p given object positions.
func pinX(p PinRef, x []float64) float64 {
	if p.Obj == Fixed {
		return p.OffX
	}
	return x[p.Obj] + p.OffX
}

// pinY returns the y coordinate of pin p given object positions.
func pinY(p PinRef, y []float64) float64 {
	if p.Obj == Fixed {
		return p.OffY
	}
	return y[p.Obj] + p.OffY
}

// HPWL returns the exact weighted half-perimeter wirelength of the view.
func HPWL(nl *Netlist, x, y []float64) float64 {
	var total float64
	for i := range nl.Nets {
		net := &nl.Nets[i]
		if len(net.Pins) < 2 {
			continue
		}
		w := net.Weight
		if w == 0 {
			w = 1
		}
		minX, maxX := math.Inf(1), math.Inf(-1)
		minY, maxY := math.Inf(1), math.Inf(-1)
		for _, p := range net.Pins {
			px, py := pinX(p, x), pinY(p, y)
			minX = math.Min(minX, px)
			maxX = math.Max(maxX, px)
			minY = math.Min(minY, py)
			maxY = math.Max(maxY, py)
		}
		total += w * ((maxX - minX) + (maxY - minY))
	}
	return total
}

// NetHPWL returns the exact half-perimeter of a single net.
func NetHPWL(net *Net, x, y []float64) float64 {
	if len(net.Pins) < 2 {
		return 0
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, p := range net.Pins {
		px, py := pinX(p, x), pinY(p, y)
		minX = math.Min(minX, px)
		maxX = math.Max(maxX, px)
		minY = math.Min(minY, py)
		maxY = math.Max(maxY, py)
	}
	return (maxX - minX) + (maxY - minY)
}

// WA is the weighted-average wirelength model with smoothing parameter
// Gamma. Smaller Gamma tracks HPWL more closely but yields stiffer
// gradients; global placement anneals Gamma from coarse to fine.
type WA struct {
	Gamma float64
}

func (WA) Name() string { return "WA" }

// Eval implements Model. Per net and axis it computes
//
//	WL = Σ xᵢ·e^{xᵢ/γ} / Σ e^{xᵢ/γ} − Σ xᵢ·e^{−xᵢ/γ} / Σ e^{−xᵢ/γ}
//
// with all exponentials shifted by the net max/min so their arguments are
// ≤ 0 (the max-shift stabilization; the value is mathematically unchanged).
// Coordinates must be finite and γ nonzero (see axis.exps).
func (m WA) Eval(nl *Netlist, x, y []float64, gx, gy []float64) float64 {
	g := m.Gamma
	sc := newScratch(nl)
	var total float64
	for i := range nl.Nets {
		net := &nl.Nets[i]
		if len(net.Pins) < 2 {
			continue
		}
		w := net.Weight
		if w == 0 {
			w = 1
		}
		sc.gather(net.Pins, x, y)
		total += w * waAxis(net.Pins, &sc.x, gx, g, w)
		total += w * waAxis(net.Pins, &sc.y, gy, g, w)
	}
	return total
}

// waAxis evaluates the WA model on one gathered axis and accumulates
// w·gradient. The returned value is unweighted; the caller applies the net
// weight.
func waAxis(pins []PinRef, ax *axis, grad []float64, gamma, w float64) float64 {
	vs := ax.v
	as, bs := ax.a[:len(vs)], ax.b[:len(vs)]
	ax.exps(gamma)
	var sPos, nPos, sNeg, nNeg float64
	for j, v := range vs {
		a, b := as[j], bs[j]
		sPos += a
		nPos += v * a
		sNeg += b
		nNeg += v * b
	}
	maxTerm := nPos / sPos
	minTerm := nNeg / sNeg
	if grad != nil {
		for j, p := range pins[:len(vs)] {
			if p.Obj == Fixed {
				continue
			}
			v := vs[j]
			dMax := as[j] / sPos * (1 + (v-maxTerm)/gamma)
			dMin := bs[j] / sNeg * (1 - (v-minTerm)/gamma)
			grad[p.Obj] += w * (dMax - dMin)
		}
	}
	return maxTerm - minTerm
}

// scratch holds one net's gathered pins for both axes. Eval sizes it once
// from the netlist's largest degree.
type scratch struct {
	x, y axis
}

// axis is one net's pin coordinates along one axis, their extent, and the
// per-pin exponentials a = e^{(v−hi)/γ} and b = e^{(lo−v)/γ}.
type axis struct {
	v, a, b  []float64
	lo, hi   float64
	ilo, ihi int // first pin at lo and at hi (−1 when none compares)
}

func newScratch(nl *Netlist) scratch {
	deg := 0
	for i := range nl.Nets {
		if n := len(nl.Nets[i].Pins); n > deg {
			deg = n
		}
	}
	buf := make([]float64, 6*deg)
	return scratch{
		x: axis{v: buf[0*deg : 1*deg], a: buf[1*deg : 2*deg], b: buf[2*deg : 3*deg]},
		y: axis{v: buf[3*deg : 4*deg], a: buf[4*deg : 5*deg], b: buf[5*deg : 6*deg]},
	}
}

// gather loads the pin coordinates of one net for both axes in a single
// pass and records each axis's extent.
func (s *scratch) gather(pins []PinRef, x, y []float64) {
	s.x.reset(len(pins))
	s.y.reset(len(pins))
	for j, p := range pins {
		vx, vy := p.OffX, p.OffY
		if p.Obj != Fixed {
			vx = x[p.Obj] + p.OffX
			vy = y[p.Obj] + p.OffY
		}
		s.x.add(j, vx)
		s.y.add(j, vy)
	}
}

func (ax *axis) reset(deg int) {
	ax.v = ax.v[:deg]
	ax.lo, ax.hi = math.Inf(1), math.Inf(-1)
	ax.ilo, ax.ihi = -1, -1
}

func (ax *axis) add(j int, v float64) {
	ax.v[j] = v
	if v < ax.lo {
		ax.lo, ax.ilo = v, j
	}
	if v > ax.hi {
		ax.hi, ax.ihi = v, j
	}
}

// exps fills a and b for every gathered pin. At the pin at hi, (v−hi)/γ
// is exactly 0, so a is exactly 1, and b = e^{(lo−hi)/γ}; at the pin at
// lo the roles swap and a takes that same value. So one math.Exp serves
// both extreme pins, and only the others pay for two. This is
// bit-identical to evaluating both exponentials at every pin, for finite
// coordinates and nonzero γ. When lo and hi are the same pin, lo = hi and
// the shared value is 1.
func (ax *axis) exps(gamma float64) {
	e := math.Exp((ax.lo - ax.hi) / gamma)
	as, bs := ax.a[:len(ax.v)], ax.b[:len(ax.v)]
	for j, v := range ax.v {
		switch j {
		case ax.ihi:
			as[j], bs[j] = 1, e
		case ax.ilo:
			as[j], bs[j] = e, 1
		default:
			as[j] = math.Exp((v - ax.hi) / gamma)
			bs[j] = math.Exp((ax.lo - v) / gamma)
		}
	}
}

// LSE is the log-sum-exp wirelength model with smoothing parameter Gamma:
//
//	WL = γ·ln Σ e^{xᵢ/γ} + γ·ln Σ e^{−xᵢ/γ}
//
// also max-shift stabilized. It upper-bounds HPWL by at most γ·ln(degree)
// per axis.
type LSE struct {
	Gamma float64
}

func (LSE) Name() string { return "LSE" }

// Eval implements Model.
func (m LSE) Eval(nl *Netlist, x, y []float64, gx, gy []float64) float64 {
	g := m.Gamma
	sc := newScratch(nl)
	var total float64
	for i := range nl.Nets {
		net := &nl.Nets[i]
		if len(net.Pins) < 2 {
			continue
		}
		w := net.Weight
		if w == 0 {
			w = 1
		}
		sc.gather(net.Pins, x, y)
		total += w * lseAxis(net.Pins, &sc.x, gx, g, w)
		total += w * lseAxis(net.Pins, &sc.y, gy, g, w)
	}
	return total
}

func lseAxis(pins []PinRef, ax *axis, grad []float64, gamma, w float64) float64 {
	vs := ax.v
	as, bs := ax.a[:len(vs)], ax.b[:len(vs)]
	ax.exps(gamma)
	var sPos, sNeg float64
	for j := range vs {
		sPos += as[j]
		sNeg += bs[j]
	}
	if grad != nil {
		for j, p := range pins[:len(vs)] {
			if p.Obj == Fixed {
				continue
			}
			grad[p.Obj] += w * (as[j]/sPos - bs[j]/sNeg)
		}
	}
	// ln Σ e^{(v-hi)/γ} = ln Σ e^{v/γ} − hi/γ, so add the shifts back.
	return gamma*math.Log(sPos) + ax.hi + (gamma*math.Log(sNeg) - ax.lo)
}
