package density

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// refBell and refPenalty are the straightforward serial density kernels:
// the bell coefficients recomputed at every bin, the area-conservation
// factors recomputed at every bin of the gradient pass. The production
// kernels hoist those; the differential tests pin them to these bit for
// bit.

func refBell(d, hw, wb float64) (p, dp float64) {
	w := 2 * hw
	inner := hw + wb
	outer := hw + 2*wb
	switch {
	case d <= inner:
		a := 4 / ((w + 2*wb) * (w + 4*wb))
		return 1 - a*d*d, -2 * a * d
	case d <= outer:
		b := 2 / (wb * (w + 4*wb))
		t := d - outer
		return b * t * t, 2 * b * t
	default:
		return 0, 0
	}
}

// refPenalty evaluates the penalty on g's geometry and capacities without
// touching g's own buffers.
func refPenalty(g *Grid, objs []Obj, x, y []float64, gx, gy []float64) float64 {
	nb := g.NX * g.NY
	demand := make([]float64, nb)
	var px, py, dpx, dpy []float64
	maxSpan := 0
	for i := range objs {
		hw := effHalf(objs[i].HalfW, g.BinW)
		hh := effHalf(objs[i].HalfH, g.BinH)
		x0, x1 := bellRange(x[i], hw+2*g.BinW, g.Die.Lo.X+g.BinW/2, g.BinW, g.NX)
		y0, y1 := bellRange(y[i], hh+2*g.BinH, g.Die.Lo.Y+g.BinH/2, g.BinH, g.NY)
		if n := x1 - x0 + 1; n > maxSpan {
			maxSpan = n
		}
		if n := y1 - y0 + 1; n > maxSpan {
			maxSpan = n
		}
		if cap(px) < maxSpan {
			px = make([]float64, maxSpan*2)
			py = make([]float64, maxSpan*2)
			dpx = make([]float64, maxSpan*2)
			dpy = make([]float64, maxSpan*2)
		}
		px := px[:x1-x0+1]
		py := py[:y1-y0+1]
		var sx, sy float64
		for bx := x0; bx <= x1; bx++ {
			cx := g.Die.Lo.X + (float64(bx)+0.5)*g.BinW
			p, _ := refBell(math.Abs(x[i]-cx), hw, g.BinW)
			px[bx-x0] = p
			sx += p
		}
		for by := y0; by <= y1; by++ {
			cy := g.Die.Lo.Y + (float64(by)+0.5)*g.BinH
			p, _ := refBell(math.Abs(y[i]-cy), hh, g.BinH)
			py[by-y0] = p
			sy += p
		}
		if sx <= 0 || sy <= 0 {
			continue
		}
		c := objs[i].Area / (sx * sy)
		for by := y0; by <= y1; by++ {
			row := by * g.NX
			pyv := py[by-y0]
			for bx := x0; bx <= x1; bx++ {
				demand[row+bx] += c * px[bx-x0] * pyv
			}
		}
	}
	var total float64
	for b := 0; b < nb; b++ {
		e := demand[b] - g.capArea[b]
		total += e * e
	}
	if gx == nil && gy == nil {
		return total
	}
	for i := range objs {
		hw := effHalf(objs[i].HalfW, g.BinW)
		hh := effHalf(objs[i].HalfH, g.BinH)
		x0, x1 := bellRange(x[i], hw+2*g.BinW, g.Die.Lo.X+g.BinW/2, g.BinW, g.NX)
		y0, y1 := bellRange(y[i], hh+2*g.BinH, g.Die.Lo.Y+g.BinH/2, g.BinH, g.NY)
		px := px[:x1-x0+1]
		dpx := dpx[:x1-x0+1]
		py := py[:y1-y0+1]
		dpy := dpy[:y1-y0+1]
		var sx, sy, dsx, dsy float64
		for bx := x0; bx <= x1; bx++ {
			cx := g.Die.Lo.X + (float64(bx)+0.5)*g.BinW
			d := x[i] - cx
			p, dp := refBell(math.Abs(d), hw, g.BinW)
			if d < 0 {
				dp = -dp
			}
			px[bx-x0] = p
			dpx[bx-x0] = dp
			sx += p
			dsx += dp
		}
		for by := y0; by <= y1; by++ {
			cy := g.Die.Lo.Y + (float64(by)+0.5)*g.BinH
			d := y[i] - cy
			p, dp := refBell(math.Abs(d), hh, g.BinH)
			if d < 0 {
				dp = -dp
			}
			py[by-y0] = p
			dpy[by-y0] = dp
			sy += p
			dsy += dp
		}
		if sx <= 0 || sy <= 0 {
			continue
		}
		c := objs[i].Area / (sx * sy)
		var gxi, gyi float64
		for by := y0; by <= y1; by++ {
			row := by * g.NX
			pyv := py[by-y0]
			dpyv := dpy[by-y0]
			for bx := x0; bx <= x1; bx++ {
				e := 2 * (demand[row+bx] - g.capArea[row+bx])
				pxv := px[bx-x0]
				gxi += e * c * pyv * (dpx[bx-x0] - pxv*dsx/sx)
				gyi += e * c * pxv * (dpyv - pyv*dsy/sy)
			}
		}
		if gx != nil {
			gx[i] += gxi
		}
		if gy != nil {
			gy[i] += gyi
		}
	}
	return total
}

// edgeObjects mixes small cells, objects wider and taller than several
// bins, and centers on, near and past the die edge.
func edgeObjects(rng *rand.Rand, die geom.Rect, n int) ([]Obj, []float64, []float64) {
	objs := make([]Obj, n)
	x := make([]float64, n)
	y := make([]float64, n)
	pick := func(lo, hi float64) float64 {
		switch rng.Intn(6) {
		case 0:
			return lo
		case 1:
			return hi
		case 2:
			return lo - rng.Float64()*10
		case 3:
			return hi + rng.Float64()*10
		}
		return lo + rng.Float64()*(hi-lo)
	}
	for i := range objs {
		hw, hh := 0.5+rng.Float64()*3, 1+rng.Float64()*3
		if rng.Intn(5) == 0 {
			hw, hh = 10+rng.Float64()*25, 8+rng.Float64()*20
		}
		objs[i] = Obj{HalfW: hw, HalfH: hh, Area: 4 * hw * hh * (0.5 + rng.Float64())}
		x[i] = pick(die.Lo.X, die.Hi.X)
		y[i] = pick(die.Lo.Y, die.Hi.Y)
	}
	return objs, x, y
}

func TestPenaltyBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	die := geom.NewRect(-20, 10, 140, 130)
	for trial := 0; trial < 12; trial++ {
		g := NewGrid(die, 8+rng.Intn(20), 8+rng.Intn(20), 0.8)
		if trial%2 == 1 {
			// Two macros with a one-bin channel between them, derated.
			g = NewGrid(die, 16, 8+rng.Intn(20), 0.8)
			g.AddFixed(geom.NewRect(-20, 40, 50, 100))
			g.AddFixed(geom.NewRect(60, 40, 140, 100))
			if g.DerateNarrowChannels(20, 0.3) == 0 {
				t.Fatalf("trial %d: no channel bins derated", trial)
			}
		}
		objs, x, y := edgeObjects(rng, die, 60+rng.Intn(60))
		n := len(objs)
		// Centers on bin centers put the outermost bell bins exactly at
		// the support's end, where value and derivative are both 0.
		for i := 0; i < n; i += 3 {
			x[i] = g.Die.Lo.X + (float64(rng.Intn(g.NX))+0.5)*g.BinW
			y[i] = g.Die.Lo.Y + (float64(rng.Intn(g.NY))+0.5)*g.BinH
		}
		gx1, gy1 := make([]float64, n), make([]float64, n)
		gx2, gy2 := make([]float64, n), make([]float64, n)
		v1 := g.Penalty(objs, x, y, gx1, gy1)
		v2 := refPenalty(g, objs, x, y, gx2, gy2)
		if math.Float64bits(v1) != math.Float64bits(v2) {
			t.Fatalf("trial %d: value %v, reference %v", trial, v1, v2)
		}
		for i := 0; i < n; i++ {
			if math.Float64bits(gx1[i]) != math.Float64bits(gx2[i]) || math.Float64bits(gy1[i]) != math.Float64bits(gy2[i]) {
				t.Fatalf("trial %d: gradient[%d] = (%v, %v), reference (%v, %v)", trial, i, gx1[i], gy1[i], gx2[i], gy2[i])
			}
		}
		if v := g.Penalty(objs, x, y, nil, nil); math.Float64bits(v) != math.Float64bits(v2) {
			t.Fatalf("trial %d: value-only %v, reference %v", trial, v, v2)
		}
		// Value and Gradient as the placer calls them: the demand of an
		// earlier Value at another point must be replaced, not added to.
		xs, ys := make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i], ys[i] = x[n-1-i], y[i]+5
		}
		g.Value(objs, xs, ys)
		if v := g.Value(objs, x, y); math.Float64bits(v) != math.Float64bits(v2) {
			t.Fatalf("trial %d: Value %v, reference %v", trial, v, v2)
		}
		gx3, gy3 := make([]float64, n), make([]float64, n)
		g.Gradient(objs, x, y, gx3, nil)
		g.Gradient(objs, x, y, nil, gy3)
		for i := 0; i < n; i++ {
			if math.Float64bits(gx3[i]) != math.Float64bits(gx2[i]) || math.Float64bits(gy3[i]) != math.Float64bits(gy2[i]) {
				t.Fatalf("trial %d: Gradient[%d] = (%v, %v), reference (%v, %v)", trial, i, gx3[i], gy3[i], gx2[i], gy2[i])
			}
		}
	}
}
