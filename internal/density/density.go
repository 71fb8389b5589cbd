// Package density implements the bin-density model of analytical global
// placement: a uniform grid over the die, a base occupancy map from fixed
// objects, the NTUplace-style bell-shaped per-cell density potential with
// analytic gradient, and the exact-overlap overflow metric used to decide
// when spreading is done.
//
// The penalty the placer minimizes is
//
//	N(x, y) = Σ_b ( D_b(x, y) − M_b )²
//
// where D_b is the smoothed movable-area density of bin b and M_b the
// bin's target capacity (target density × free bin area). Each movable
// object deposits area into nearby bins through a twice-differentiable
// bell curve per axis; the curve's support spans the object plus two bins
// on each side, and small objects are widened to one bin so that gradients
// never vanish. Per-object normalization keeps the deposited area exactly
// equal to the object's (inflated) area, so total area is conserved no
// matter the bell shapes.
package density

import (
	"math"

	"repro/internal/geom"
)

// Obj is one movable object as the density model sees it: half-dimensions
// for spreading and the area to deposit (already inflated when routability
// inflation is active). Coordinates live in the caller's arrays.
type Obj struct {
	HalfW, HalfH float64
	Area         float64
}

// Grid is the density bin structure.
type Grid struct {
	Die        geom.Rect
	NX, NY     int
	BinW, BinH float64
	// Target is the target density in (0, 1].
	Target float64

	// base[b] is the area of fixed objects overlapping bin b.
	base []float64
	// capArea[b] = Target · (binArea − base[b]), the allowed movable area.
	capArea []float64

	// demand is the smoothed movable area per bin from the last Value.
	demand []float64

	scratch bellScratch
}

// NewGrid builds an nx×ny grid over die with the given target density.
func NewGrid(die geom.Rect, nx, ny int, target float64) *Grid {
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	if target <= 0 || target > 1 {
		target = 1
	}
	g := &Grid{
		Die: die, NX: nx, NY: ny,
		BinW: die.W() / float64(nx), BinH: die.H() / float64(ny),
		Target: target,
		base:   make([]float64, nx*ny),
		demand: make([]float64, nx*ny),
	}
	g.recomputeCap()
	return g
}

func (g *Grid) recomputeCap() {
	binArea := g.BinW * g.BinH
	if g.capArea == nil {
		g.capArea = make([]float64, len(g.base))
	}
	for i, b := range g.base {
		free := binArea - b
		if free < 0 {
			free = 0
		}
		g.capArea[i] = g.Target * free
	}
}

// AddFixed deposits a fixed object's footprint into the base map by exact
// rectangle overlap. Call for every fixed macro before placement; the die
// clip is applied internally.
func (g *Grid) AddFixed(r geom.Rect) {
	r = r.Intersect(g.Die)
	if r.Empty() {
		return
	}
	x0, x1 := g.binRangeX(r.Lo.X, r.Hi.X)
	y0, y1 := g.binRangeY(r.Lo.Y, r.Hi.Y)
	for by := y0; by <= y1; by++ {
		for bx := x0; bx <= x1; bx++ {
			g.base[by*g.NX+bx] += g.binRect(bx, by).OverlapArea(r)
		}
	}
	g.recomputeCap()
}

// Base returns the fixed-area occupancy of bin (bx, by).
func (g *Grid) Base(bx, by int) float64 { return g.base[by*g.NX+bx] }

// binRect returns the rectangle of bin (bx, by).
func (g *Grid) binRect(bx, by int) geom.Rect {
	x := g.Die.Lo.X + float64(bx)*g.BinW
	y := g.Die.Lo.Y + float64(by)*g.BinH
	return geom.NewRect(x, y, x+g.BinW, y+g.BinH)
}

// binRangeX clamps [lo, hi] to valid x bin indices.
func (g *Grid) binRangeX(lo, hi float64) (int, int) {
	b0 := int(math.Floor((lo - g.Die.Lo.X) / g.BinW))
	b1 := int(math.Floor((hi - g.Die.Lo.X) / g.BinW))
	if b0 < 0 {
		b0 = 0
	}
	if b1 >= g.NX {
		b1 = g.NX - 1
	}
	return b0, b1
}

func (g *Grid) binRangeY(lo, hi float64) (int, int) {
	b0 := int(math.Floor((lo - g.Die.Lo.Y) / g.BinH))
	b1 := int(math.Floor((hi - g.Die.Lo.Y) / g.BinH))
	if b0 < 0 {
		b0 = 0
	}
	if b1 >= g.NY {
		b1 = g.NY - 1
	}
	return b0, b1
}

// bellRange returns the first and last bin index whose center can be
// within the bell support [c − span, c + span] along one axis.
func bellRange(c, span, origin, step float64, n int) (int, int) {
	b0 := int(math.Floor((c - span - origin) / step))
	b1 := int(math.Ceil((c + span - origin) / step))
	if b0 < 0 {
		b0 = 0
	}
	if b1 >= n {
		b1 = n - 1
	}
	return b0, b1
}

// bellAxis is the bell-shaped potential of one object along one axis, as
// a function of the distance d ≥ 0 from the object center to a bin
// center, for object half-width hw and bin width wb:
//
//	p(d) = 1 − a·d²                    for d ≤ hw + wb
//	p(d) = b·(d − hw − 2wb)²           for hw + wb < d ≤ hw + 2wb
//	p(d) = 0                           beyond
//
// with a, b chosen for C¹ continuity. They depend only on hw and wb, so
// they are computed once per object and axis, not once per bin.
type bellAxis struct {
	inner, outer float64
	a, b         float64
}

func newBellAxis(hw, wb float64) bellAxis {
	w := 2 * hw
	return bellAxis{
		inner: hw + wb,
		outer: hw + 2*wb,
		a:     4 / ((w + 2*wb) * (w + 4*wb)),
		b:     2 / (wb * (w + 4*wb)),
	}
}

// at returns p(d) and its derivative dp/dd.
func (k *bellAxis) at(d float64) (p, dp float64) {
	switch {
	case d <= k.inner:
		return 1 - k.a*d*d, -2 * k.a * d
	case d <= k.outer:
		t := d - k.outer
		return k.b * t * t, 2 * k.b * t
	default:
		return 0, 0
	}
}

// profile writes the bell values of an object centered at c, with
// effective half-width hw, into p: one per bin along an axis, starting at
// bin b0, for bins of width wb from origin. When dp is non-nil it also
// writes the derivatives with respect to c. It returns Σp and Σdp.
func profile(c, hw, origin, wb float64, b0 int, p, dp []float64) (s, ds float64) {
	k := newBellAxis(hw, wb)
	for j := range p {
		d := c - (origin + (float64(b0+j)+0.5)*wb)
		v, dv := k.at(math.Abs(d))
		p[j] = v
		s += v
		if dp != nil {
			if d < 0 {
				dv = -dv
			}
			dp[j] = dv
			ds += dv
		}
	}
	return s, ds
}

// effHalf widens an object's half-extent to at least one bin so that the
// bell support always covers several bin centers.
func effHalf(h, binDim float64) float64 {
	if h < binDim {
		return binDim
	}
	return h
}

// DerateNarrowChannels reduces the capacity of bins lying in narrow
// channels: maximal runs of free bins, bounded on both sides by
// macro-blocked bins, whose extent is below minSpan. Cells placed in such
// channels are nearly unroutable (the macros also block routing layers),
// so the placer derates them by the given factor and spreading naturally
// avoids them. It returns the number of derated bins. Call after all
// AddFixed calls.
func (g *Grid) DerateNarrowChannels(minSpan, factor float64) int {
	if factor < 0 {
		factor = 0
	}
	if factor > 1 {
		factor = 1
	}
	binArea := g.BinW * g.BinH
	blocked := func(bx, by int) bool {
		return g.base[by*g.NX+bx] >= 0.5*binArea
	}
	derate := make([]bool, g.NX*g.NY)
	// Horizontal runs.
	for by := 0; by < g.NY; by++ {
		run := 0
		leftBounded := false
		flush := func(end int, rightBounded bool) {
			if run > 0 && leftBounded && rightBounded && float64(run)*g.BinW < minSpan {
				for bx := end - run; bx < end; bx++ {
					derate[by*g.NX+bx] = true
				}
			}
		}
		for bx := 0; bx < g.NX; bx++ {
			if blocked(bx, by) {
				flush(bx, true)
				run = 0
				leftBounded = true
			} else {
				run++
			}
		}
		flush(g.NX, false)
	}
	// Vertical runs.
	for bx := 0; bx < g.NX; bx++ {
		run := 0
		lowBounded := false
		flush := func(end int, highBounded bool) {
			if run > 0 && lowBounded && highBounded && float64(run)*g.BinH < minSpan {
				for by := end - run; by < end; by++ {
					derate[by*g.NX+bx] = true
				}
			}
		}
		for by := 0; by < g.NY; by++ {
			if blocked(bx, by) {
				flush(by, true)
				run = 0
				lowBounded = true
			} else {
				run++
			}
		}
		flush(g.NY, false)
	}
	count := 0
	for i, dr := range derate {
		if dr {
			g.capArea[i] *= factor
			count++
		}
	}
	return count
}

// EnsureCapacity rescales the bin capacities so their sum is at least
// margin × required. Derating (channels) and dense fixed layouts can push
// the summed target capacity below the movable area, which makes the
// density system infeasible and stalls spreading; this restores global
// feasibility while preserving the relative shape of the capacity map.
// It returns the scale factor applied (1 when nothing was needed).
func (g *Grid) EnsureCapacity(required, margin float64) float64 {
	var total float64
	for _, c := range g.capArea {
		total += c
	}
	want := required * margin
	if total >= want || total <= 0 {
		return 1
	}
	scale := want / total
	for i := range g.capArea {
		g.capArea[i] *= scale
	}
	return scale
}

// Penalty evaluates the density penalty Σ_b (D_b − M_b)² over the objects
// at centers (x[i], y[i]) and adds ∂N/∂x, ∂N/∂y into gx, gy when non-nil:
// Value, then Gradient when a gradient is asked for.
func (g *Grid) Penalty(objs []Obj, x, y []float64, gx, gy []float64) float64 {
	total := g.Value(objs, x, y)
	if gx != nil || gy != nil {
		g.Gradient(objs, x, y, gx, gy)
	}
	return total
}

// Value deposits every object into the grid's demand map and returns the
// penalty Σ_b (demand_b − capacity_b)². The demand stays for Gradient.
func (g *Grid) Value(objs []Obj, x, y []float64) float64 {
	clear(g.demand)
	g.deposit(objs, x, y)
	var total float64
	for b, d := range g.demand {
		e := d - g.capArea[b]
		total += e * e
	}
	return total
}

// bellScratch holds one object's bell profiles.
type bellScratch struct {
	px, py   []float64
	dpx, dpy []float64
}

func (s *bellScratch) ensure(span int) {
	if cap(s.px) < span {
		s.px = make([]float64, span*2)
		s.py = make([]float64, span*2)
		s.dpx = make([]float64, span*2)
		s.dpy = make([]float64, span*2)
	}
}

// footprint returns o's effective half-extents and the bin ranges its
// bell support reaches when centered at (cx, cy), and sizes the scratch
// for them.
func (g *Grid) footprint(o *Obj, cx, cy float64) (hw, hh float64, x0, x1, y0, y1 int) {
	hw = effHalf(o.HalfW, g.BinW)
	hh = effHalf(o.HalfH, g.BinH)
	x0, x1 = bellRange(cx, hw+2*g.BinW, g.Die.Lo.X+g.BinW/2, g.BinW, g.NX)
	y0, y1 = bellRange(cy, hh+2*g.BinH, g.Die.Lo.Y+g.BinH/2, g.BinH, g.NY)
	span := x1 - x0 + 1
	if y1-y0+1 > span {
		span = y1 - y0 + 1
	}
	g.scratch.ensure(span)
	return hw, hh, x0, x1, y0, y1
}

// trim drops the leading and trailing bins of a profile that starts at
// bin b0 whose value p, and derivative dp when dp is non-nil, are exactly
// 0, and returns the new first bin. The bell range is rounded out to
// whole bins, so such bins are common. They contribute only exact zeros
// to the deposit and gradient sums (+0 to the non-negative demand, ±0 to
// a gradient sum, which is never −0), so skipping them changes no bit.
func trim(b0 int, p, dp []float64) (int, []float64, []float64) {
	lo, hi := 0, len(p)
	for lo < hi && p[lo] == 0 && (dp == nil || dp[lo] == 0) {
		lo++
	}
	for hi > lo && p[hi-1] == 0 && (dp == nil || dp[hi-1] == 0) {
		hi--
	}
	if dp != nil {
		dp = dp[lo:hi]
	}
	return b0 + lo, p[lo:hi], dp
}

// deposit adds every object's normalized bell into the demand map.
func (g *Grid) deposit(objs []Obj, x, y []float64) {
	scr := &g.scratch
	for i := range objs {
		hw, hh, x0, x1, y0, y1 := g.footprint(&objs[i], x[i], y[i])
		px := scr.px[:x1-x0+1]
		py := scr.py[:y1-y0+1]
		sx, _ := profile(x[i], hw, g.Die.Lo.X, g.BinW, x0, px, nil)
		sy, _ := profile(y[i], hh, g.Die.Lo.Y, g.BinH, y0, py, nil)
		if sx <= 0 || sy <= 0 {
			continue
		}
		c := objs[i].Area / (sx * sy)
		x0, px, _ = trim(x0, px, nil)
		y0, py, _ = trim(y0, py, nil)
		// The deposit is (c·px)·py; c·px depends only on the column.
		for k := range px {
			px[k] = c * px[k]
		}
		for j, pyv := range py {
			r := (y0+j)*g.NX + x0
			row := g.demand[r : r+len(px)]
			for k, cpx := range px {
				row[k] += cpx * pyv
			}
		}
	}
}

// Gradient adds ∂N/∂x and ∂N/∂y into gx and gy (either may be nil) for
// the demand the last Value left. With per-object normalization
// c = A/(sx·sy), the exact derivative of each deposit is
//
//	∂(c·px·py)/∂x = c · py · (px' − px · sx'/sx)
//
// where sx' = Σ_b px'(b); the sx'/sx term keeps area conservation
// differentiated rather than approximated away. The factor in parentheses
// depends only on the bin column (its y twin only on the row), so each is
// computed once per column or row.
func (g *Grid) Gradient(objs []Obj, x, y []float64, gx, gy []float64) {
	scr := &g.scratch
	for i := range objs {
		hw, hh, x0, x1, y0, y1 := g.footprint(&objs[i], x[i], y[i])
		px := scr.px[:x1-x0+1]
		py := scr.py[:y1-y0+1]
		fx := scr.dpx[:x1-x0+1]
		dpy := scr.dpy[:y1-y0+1]
		sx, dsx := profile(x[i], hw, g.Die.Lo.X, g.BinW, x0, px, fx)
		sy, dsy := profile(y[i], hh, g.Die.Lo.Y, g.BinH, y0, py, dpy)
		if sx <= 0 || sy <= 0 {
			continue
		}
		x0, px, fx = trim(x0, px, fx)
		y0, py, dpy = trim(y0, py, dpy)
		for k, dp := range fx {
			fx[k] = dp - px[k]*dsx/sx
		}
		c := objs[i].Area / (sx * sy)
		var gxi, gyi float64
		for j, pyv := range py {
			row := (y0+j)*g.NX + x0
			dem := g.demand[row : row+len(px)]
			capa := g.capArea[row : row+len(px)]
			fy := dpy[j] - pyv*dsy/sy
			for k, pxv := range px {
				ec := 2 * (dem[k] - capa[k]) * c
				gxi += ec * pyv * fx[k]
				gyi += ec * pxv * fy
			}
		}
		if gx != nil {
			gx[i] += gxi
		}
		if gy != nil {
			gy[i] += gyi
		}
	}
}

// Overflow returns the total-overflow ratio using exact rectangle overlap:
// Σ_b max(0, demand_b − capacity_b) / Σ area. It is the convergence
// criterion for spreading (not differentiable; evaluated between solver
// rounds).
func (g *Grid) Overflow(objs []Obj, x, y []float64) float64 {
	nb := g.NX * g.NY
	dem := make([]float64, nb)
	var totalArea float64
	for i := range objs {
		totalArea += objs[i].Area
		r := geom.NewRect(x[i]-objs[i].HalfW, y[i]-objs[i].HalfH, x[i]+objs[i].HalfW, y[i]+objs[i].HalfH)
		r = r.Intersect(g.Die)
		if r.Empty() {
			continue
		}
		// Scale so clipped deposits still sum to the full area.
		scale := objs[i].Area / (4 * objs[i].HalfW * objs[i].HalfH)
		x0, x1 := g.binRangeX(r.Lo.X, r.Hi.X)
		y0, y1 := g.binRangeY(r.Lo.Y, r.Hi.Y)
		for by := y0; by <= y1; by++ {
			for bx := x0; bx <= x1; bx++ {
				dem[by*g.NX+bx] += scale * g.binRect(bx, by).OverlapArea(r)
			}
		}
	}
	if totalArea <= 0 {
		return 0
	}
	var over float64
	for b := 0; b < nb; b++ {
		if ex := dem[b] - g.capArea[b]; ex > 0 {
			over += ex
		}
	}
	return over / totalArea
}

// DensityMap returns the exact-overlap density (demand / free bin area)
// per bin, for congestion-style visualization and tests.
func (g *Grid) DensityMap(objs []Obj, x, y []float64) []float64 {
	nb := g.NX * g.NY
	dem := make([]float64, nb)
	for i := range objs {
		r := geom.NewRect(x[i]-objs[i].HalfW, y[i]-objs[i].HalfH, x[i]+objs[i].HalfW, y[i]+objs[i].HalfH)
		r = r.Intersect(g.Die)
		if r.Empty() {
			continue
		}
		scale := objs[i].Area / (4 * objs[i].HalfW * objs[i].HalfH)
		x0, x1 := g.binRangeX(r.Lo.X, r.Hi.X)
		y0, y1 := g.binRangeY(r.Lo.Y, r.Hi.Y)
		for by := y0; by <= y1; by++ {
			for bx := x0; bx <= x1; bx++ {
				dem[by*g.NX+bx] += scale * g.binRect(bx, by).OverlapArea(r)
			}
		}
	}
	binArea := g.BinW * g.BinH
	out := make([]float64, nb)
	for b := 0; b < nb; b++ {
		free := binArea - g.base[b]
		if free <= 1e-12 {
			out[b] = 0
			if dem[b] > 0 {
				out[b] = math.Inf(1)
			}
			continue
		}
		out[b] = dem[b] / free
	}
	return out
}

// TotalDeposited returns the sum of smoothed demand after the last Value
// (or Penalty) call; used by area-conservation tests.
func (g *Grid) TotalDeposited() float64 {
	var s float64
	for _, d := range g.demand {
		s += d
	}
	return s
}
