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

// Model is a differentiable wirelength approximation. Value returns the
// total weighted wirelength and keeps in c everything Gradient needs;
// Gradient adds ∂WL/∂x and ∂WL/∂y at the point of the last Value on c
// into gx and gy (either may be nil; callers zero them first when they
// want a pure wirelength gradient). Eval is Value followed by Gradient
// on a fresh cache.
type Model interface {
	Value(nl *Netlist, x, y []float64, c *Cache) float64
	Gradient(nl *Netlist, c *Cache, gx, gy []float64)
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

// Slack bounds how far rounding can pull a computed WA or LSE total
// below zero, where the models themselves never go: with γ > 0, object
// centers within [−r, r] on both axes and no negative net weight,
// Value ≥ −Slack(nl, r). The global placer uses it to reject line-search
// trials on the other objective terms alone (DESIGN.md §16.5 has the
// derivation).
//
// In short, for unit roundoff u = 2⁻⁵³ and pin coordinates at most
// M = r + max|offset| in magnitude: the exact weighted averages behind
// WA's max and min terms are ordered, because the rounded exponent
// arguments are monotone in the coordinate; each computed term lies
// within (2k+256)·u·M·1.0001 of its exact average for a degree-k net
// (summation and division error, plus math.Exp errors of up to 64 ulps);
// so a net's weighted value is ≥ −8.004·(k+128)·u·M·w, and a rounded
// running sum of terms each ≥ −εᵢ stays ≥ −(1+u)ᵐ·Σεᵢ. Slack returns
// 9·u·M·Σ w·(k+128). LSE's computed value is never below zero.
func Slack(nl *Netlist, r float64) float64 {
	const u = 0x1p-53
	var off, sum float64
	for i := range nl.Nets {
		net := &nl.Nets[i]
		k := len(net.Pins)
		if k < 2 {
			continue
		}
		w := net.Weight
		if w == 0 {
			w = 1
		}
		if !(w >= 0) {
			return math.Inf(1)
		}
		for _, p := range net.Pins {
			off = math.Max(off, math.Max(math.Abs(p.OffX), math.Abs(p.OffY)))
		}
		sum += w * float64(k+128)
	}
	return 9 * u * (math.Abs(r) + off) * sum
}

// WA is the weighted-average wirelength model with smoothing parameter
// Gamma. Smaller Gamma tracks HPWL more closely but yields stiffer
// gradients; global placement anneals Gamma from coarse to fine.
type WA struct {
	Gamma float64
}

func (WA) Name() string { return "WA" }

// Eval implements Model.
func (m WA) Eval(nl *Netlist, x, y []float64, gx, gy []float64) float64 {
	return eval(m, nl, x, y, gx, gy)
}

// Value implements Model. Per net and axis it computes
//
//	WL = Σ xᵢ·e^{xᵢ/γ} / Σ e^{xᵢ/γ} − Σ xᵢ·e^{−xᵢ/γ} / Σ e^{−xᵢ/γ}
//
// with all exponentials shifted by the net max/min so their arguments are
// ≤ 0 (the max-shift stabilization; the value is mathematically unchanged).
// Coordinates must be finite and γ nonzero (see axis.exps).
func (m WA) Value(nl *Netlist, x, y []float64, c *Cache) float64 {
	var total float64
	c.each(nl, func(i int, w float64, pins []PinRef, ax, ay *axis) {
		gather(pins, ax, ay, x, y)
		total += w * waValue(ax, &c.x.net[i], m.Gamma)
		total += w * waValue(ay, &c.y.net[i], m.Gamma)
	})
	return total
}

// waValue evaluates the WA model on one gathered axis, keeps the sums
// the gradient needs in s and returns the unweighted value.
func waValue(ax *axis, s *netSums, gamma float64) float64 {
	ax.exps(gamma)
	var sPos, nPos, sNeg, nNeg float64
	for j, v := range ax.v {
		a, b := ax.a[j], ax.b[j]
		sPos += a
		nPos += v * a
		sNeg += b
		nNeg += v * b
	}
	*s = netSums{sPos: sPos, sNeg: sNeg, maxTerm: nPos / sPos, minTerm: nNeg / sNeg}
	return s.maxTerm - s.minTerm
}

// Gradient implements Model.
func (m WA) Gradient(nl *Netlist, c *Cache, gx, gy []float64) {
	c.each(nl, func(i int, w float64, pins []PinRef, ax, ay *axis) {
		if gx != nil {
			waGradient(pins, ax, &c.x.net[i], gx, m.Gamma, w)
		}
		if gy != nil {
			waGradient(pins, ay, &c.y.net[i], gy, m.Gamma, w)
		}
	})
}

// waGradient accumulates w·∂WL/∂ of one cached axis into grad.
func waGradient(pins []PinRef, ax *axis, s *netSums, grad []float64, gamma, w float64) {
	for j, p := range pins {
		if p.Obj == Fixed {
			continue
		}
		v := ax.v[j]
		dMax := ax.a[j] / s.sPos * (1 + (v-s.maxTerm)/gamma)
		dMin := ax.b[j] / s.sNeg * (1 - (v-s.minTerm)/gamma)
		grad[p.Obj] += w * (dMax - dMin)
	}
}

// eval is Value followed by Gradient on a fresh cache.
func eval(m Model, nl *Netlist, x, y []float64, gx, gy []float64) float64 {
	c := NewCache(nl)
	total := m.Value(nl, x, y, c)
	if gx != nil || gy != nil {
		m.Gradient(nl, c, gx, gy)
	}
	return total
}

// Cache keeps what a Value call computed for one netlist: per pin and
// axis the coordinate and both exponentials, per net and axis the sums
// of the gradient formulas. Gradient reads it instead of recomputing any
// exponential. A cache serves one netlist (NewCache sizes it) and holds
// the state of the last Value only.
type Cache struct {
	x, y cacheAxis
}

type cacheAxis struct {
	v, a, b []float64 // per pin, nets in order
	net     []netSums
}

// netSums are one net's per-axis sums: Σa and Σb for both models, and
// WA's two weighted averages.
type netSums struct {
	sPos, sNeg       float64
	maxTerm, minTerm float64
}

// NewCache sizes a cache for nl.
func NewCache(nl *Netlist) *Cache {
	pins := 0
	for i := range nl.Nets {
		pins += len(nl.Nets[i].Pins)
	}
	buf := make([]float64, 6*pins)
	sums := make([]netSums, 2*len(nl.Nets))
	return &Cache{
		x: cacheAxis{v: buf[0*pins : 1*pins], a: buf[1*pins : 2*pins], b: buf[2*pins : 3*pins], net: sums[:len(nl.Nets)]},
		y: cacheAxis{v: buf[3*pins : 4*pins], a: buf[4*pins : 5*pins], b: buf[5*pins : 6*pins], net: sums[len(nl.Nets):]},
	}
}

// each calls fn for every net of degree ≥ 2 in order, with its index,
// effective weight (0 means 1), pins and its slots of the cache.
func (c *Cache) each(nl *Netlist, fn func(i int, w float64, pins []PinRef, ax, ay *axis)) {
	off := 0
	var ax, ay axis
	for i := range nl.Nets {
		net := &nl.Nets[i]
		k := len(net.Pins)
		if k >= 2 {
			w := net.Weight
			if w == 0 {
				w = 1
			}
			c.x.slot(&ax, off, k)
			c.y.slot(&ay, off, k)
			fn(i, w, net.Pins, &ax, &ay)
		}
		off += k
	}
}

func (ca *cacheAxis) slot(ax *axis, off, k int) {
	ax.v, ax.a, ax.b = ca.v[off:off+k], ca.a[off:off+k], ca.b[off:off+k]
}

// axis is one net's pin coordinates along one axis, their extent, and the
// per-pin exponentials a = e^{(v−hi)/γ} and b = e^{(lo−v)/γ}, all views
// into a Cache.
type axis struct {
	v, a, b  []float64
	lo, hi   float64
	ilo, ihi int // first pin at lo and at hi (−1 when none compares)
}

// gather loads the pin coordinates of one net for both axes in a single
// pass and records each axis's extent.
func gather(pins []PinRef, ax, ay *axis, x, y []float64) {
	ax.reset()
	ay.reset()
	for j, p := range pins {
		vx, vy := p.OffX, p.OffY
		if p.Obj != Fixed {
			vx = x[p.Obj] + p.OffX
			vy = y[p.Obj] + p.OffY
		}
		ax.add(j, vx)
		ay.add(j, vy)
	}
}

func (ax *axis) reset() {
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
	return eval(m, nl, x, y, gx, gy)
}

// Value implements Model.
func (m LSE) Value(nl *Netlist, x, y []float64, c *Cache) float64 {
	var total float64
	c.each(nl, func(i int, w float64, pins []PinRef, ax, ay *axis) {
		gather(pins, ax, ay, x, y)
		total += w * lseValue(ax, &c.x.net[i], m.Gamma)
		total += w * lseValue(ay, &c.y.net[i], m.Gamma)
	})
	return total
}

func lseValue(ax *axis, s *netSums, gamma float64) float64 {
	ax.exps(gamma)
	var sPos, sNeg float64
	for j := range ax.v {
		sPos += ax.a[j]
		sNeg += ax.b[j]
	}
	*s = netSums{sPos: sPos, sNeg: sNeg}
	// ln Σ e^{(v-hi)/γ} = ln Σ e^{v/γ} − hi/γ, so add the shifts back.
	return gamma*math.Log(sPos) + ax.hi + (gamma*math.Log(sNeg) - ax.lo)
}

// Gradient implements Model.
func (m LSE) Gradient(nl *Netlist, c *Cache, gx, gy []float64) {
	c.each(nl, func(i int, w float64, pins []PinRef, ax, ay *axis) {
		if gx != nil {
			lseGradient(pins, ax, &c.x.net[i], gx, w)
		}
		if gy != nil {
			lseGradient(pins, ay, &c.y.net[i], gy, w)
		}
	})
}

func lseGradient(pins []PinRef, ax *axis, s *netSums, grad []float64, w float64) {
	for j, p := range pins {
		if p.Obj == Fixed {
			continue
		}
		grad[p.Obj] += w * (ax.a[j]/s.sPos - ax.b[j]/s.sNeg)
	}
}
