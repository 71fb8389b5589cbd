package wl

import (
	"math"
	"math/rand"
	"testing"
)

// The reference kernels below are the straightforward WA and LSE
// evaluations: a pin-accessor callback per axis, both exponentials at
// every pin. The production kernels share exponentials and gather x and y
// in one pass; the differential tests pin them to these bit for bit.

func refWAEval(m WA, nl *Netlist, x, y []float64, gx, gy []float64) float64 {
	g := m.Gamma
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
		total += w * refWAAxis(net, x, gx, g, w, pinX)
		total += w * refWAAxis(net, y, gy, g, w, pinY)
	}
	return total
}

func refWAAxis(net *Net, coord []float64, grad []float64, gamma, w float64, at func(PinRef, []float64) float64) float64 {
	deg := len(net.Pins)
	var bufV, bufA, bufB [32]float64
	vs, as, bs := bufV[:0], bufA[:0], bufB[:0]
	if deg > len(bufV) {
		vs = make([]float64, 0, deg)
		as = make([]float64, 0, deg)
		bs = make([]float64, 0, deg)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range net.Pins {
		v := at(p, coord)
		vs = append(vs, v)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var sPos, nPos, sNeg, nNeg float64
	for _, v := range vs {
		a := math.Exp((v - hi) / gamma)
		b := math.Exp((lo - v) / gamma)
		as = append(as, a)
		bs = append(bs, b)
		sPos += a
		nPos += v * a
		sNeg += b
		nNeg += v * b
	}
	maxTerm := nPos / sPos
	minTerm := nNeg / sNeg
	if grad != nil {
		for i, p := range net.Pins {
			if p.Obj == Fixed {
				continue
			}
			v := vs[i]
			dMax := as[i] / sPos * (1 + (v-maxTerm)/gamma)
			dMin := bs[i] / sNeg * (1 - (v-minTerm)/gamma)
			grad[p.Obj] += w * (dMax - dMin)
		}
	}
	return maxTerm - minTerm
}

func refLSEEval(m LSE, nl *Netlist, x, y []float64, gx, gy []float64) float64 {
	g := m.Gamma
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
		total += w * refLSEAxis(net, x, gx, g, w, pinX)
		total += w * refLSEAxis(net, y, gy, g, w, pinY)
	}
	return total
}

func refLSEAxis(net *Net, coord []float64, grad []float64, gamma, w float64, at func(PinRef, []float64) float64) float64 {
	deg := len(net.Pins)
	var bufA, bufB [32]float64
	as, bs := bufA[:0], bufB[:0]
	if deg > len(bufA) {
		as = make([]float64, 0, deg)
		bs = make([]float64, 0, deg)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range net.Pins {
		v := at(p, coord)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var sPos, sNeg float64
	for _, p := range net.Pins {
		v := at(p, coord)
		a := math.Exp((v - hi) / gamma)
		b := math.Exp((lo - v) / gamma)
		as = append(as, a)
		bs = append(bs, b)
		sPos += a
		sNeg += b
	}
	if grad != nil {
		for i, p := range net.Pins {
			if p.Obj == Fixed {
				continue
			}
			grad[p.Obj] += w * (as[i]/sPos - bs[i]/sNeg)
		}
	}
	return gamma*math.Log(sPos) + hi + (gamma*math.Log(sNeg) - lo)
}

// edgeNetlist builds nets that exercise every branch of the exponential
// sharing: ties at the max and at the min, all pins coincident, fixed
// pins (also at the extremes), zero weight, repeated objects, and degrees
// 2–40, past the 32-entry stack buffers of the reference kernels.
func edgeNetlist(rng *rand.Rand, n int) (*Netlist, []float64, []float64) {
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		// A coarse lattice makes coordinate ties common.
		x[i] = float64(rng.Intn(12)) * 2.5
		y[i] = float64(rng.Intn(12)) * 2.5
	}
	nl := &Netlist{NumObjs: n}
	for deg := 2; deg <= 40; deg++ {
		for rep := 0; rep < 6; rep++ {
			net := Net{Weight: []float64{0, 1, 0.5 + rng.Float64()}[rng.Intn(3)]}
			coincident := rep == 0
			anchor := rng.Intn(n)
			for j := 0; j < deg; j++ {
				switch {
				case coincident:
					net.Pins = append(net.Pins, PinRef{Obj: anchor})
				case rng.Float64() < 0.15:
					// Fixed pins on the same lattice can tie movable ones.
					net.Pins = append(net.Pins, PinRef{Obj: Fixed,
						OffX: float64(rng.Intn(14)-1) * 2.5, OffY: float64(rng.Intn(14)-1) * 2.5})
				case rng.Float64() < 0.5:
					net.Pins = append(net.Pins, PinRef{Obj: rng.Intn(n)})
				default:
					net.Pins = append(net.Pins, PinRef{Obj: rng.Intn(n),
						OffX: rng.Float64()*4 - 2, OffY: rng.Float64()*4 - 2})
				}
			}
			nl.Nets = append(nl.Nets, net)
		}
	}
	// Degenerate nets the models must skip.
	nl.Nets = append(nl.Nets, Net{Weight: 1}, Net{Weight: 1, Pins: []PinRef{{Obj: 0}}})
	return nl, x, y
}

// sameBits reports the first index where a and b differ in any bit, or −1.
func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

func TestKernelsBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	type kernel struct {
		model Model
		ref   func(nl *Netlist, x, y, gx, gy []float64) float64
	}
	for trial := 0; trial < 20; trial++ {
		var nl *Netlist
		var x, y []float64
		if trial%2 == 0 {
			nl, x, y = edgeNetlist(rng, 30)
		} else {
			nl, x, y = randNetlist(rng, 40, 80)
		}
		gamma := []float64{0.05, 1, 2, 37}[trial%4]
		wa, lse := WA{Gamma: gamma}, LSE{Gamma: gamma}
		// A cache last filled at another point: Gradient must read only
		// what the latest Value wrote.
		c := NewCache(nl)
		for _, k := range []kernel{
			{wa, func(nl *Netlist, x, y, gx, gy []float64) float64 { return refWAEval(wa, nl, x, y, gx, gy) }},
			{lse, func(nl *Netlist, x, y, gx, gy []float64) float64 { return refLSEEval(lse, nl, x, y, gx, gy) }},
		} {
			name := k.model.Name()
			n := nl.NumObjs
			gx1, gy1 := make([]float64, n), make([]float64, n)
			gx2, gy2 := make([]float64, n), make([]float64, n)
			v1 := k.model.Eval(nl, x, y, gx1, gy1)
			v2 := k.ref(nl, x, y, gx2, gy2)
			if math.Float64bits(v1) != math.Float64bits(v2) {
				t.Fatalf("trial %d %s γ=%v: value %v, reference %v", trial, name, gamma, v1, v2)
			}
			if i := sameBits(gx1, gx2); i >= 0 {
				t.Fatalf("trial %d %s γ=%v: gx[%d] = %v, reference %v", trial, name, gamma, i, gx1[i], gx2[i])
			}
			if i := sameBits(gy1, gy2); i >= 0 {
				t.Fatalf("trial %d %s γ=%v: gy[%d] = %v, reference %v", trial, name, gamma, i, gy1[i], gy2[i])
			}
			// Value-only and one-axis gradient calls take the same path.
			if v := k.model.Eval(nl, x, y, nil, nil); math.Float64bits(v) != math.Float64bits(v2) {
				t.Fatalf("trial %d %s: value-only %v, reference %v", trial, name, v, v2)
			}
			gy3 := make([]float64, n)
			k.model.Eval(nl, x, y, nil, gy3)
			if i := sameBits(gy3, gy2); i >= 0 {
				t.Fatalf("trial %d %s: y-only gy[%d] = %v, reference %v", trial, name, i, gy3[i], gy2[i])
			}
			// Value and Gradient as the placer calls them, on the shared
			// cache: first at a shifted point, then at (x, y).
			xs, ys := make([]float64, n), make([]float64, n)
			for i := range xs {
				xs[i], ys[i] = x[i]*1.5+3, y[i]-7
			}
			k.model.Value(nl, xs, ys, c)
			if v := k.model.Value(nl, x, y, c); math.Float64bits(v) != math.Float64bits(v2) {
				t.Fatalf("trial %d %s: Value %v, reference %v", trial, name, v, v2)
			}
			gx4, gy4 := make([]float64, n), make([]float64, n)
			k.model.Gradient(nl, c, gx4, gy4)
			if i := sameBits(gx4, gx2); i >= 0 {
				t.Fatalf("trial %d %s: Gradient gx[%d] = %v, reference %v", trial, name, i, gx4[i], gx2[i])
			}
			if i := sameBits(gy4, gy2); i >= 0 {
				t.Fatalf("trial %d %s: Gradient gy[%d] = %v, reference %v", trial, name, i, gy4[i], gy2[i])
			}
		}
	}
}
