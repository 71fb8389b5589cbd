package wl

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// twoPin builds a single two-pin net between objects 0 and 1.
func twoPin() *Netlist {
	return &Netlist{
		NumObjs: 2,
		Nets: []Net{{
			Weight: 1,
			Pins:   []PinRef{{Obj: 0}, {Obj: 1}},
		}},
	}
}

func TestHPWLTwoPin(t *testing.T) {
	nl := twoPin()
	x := []float64{0, 3}
	y := []float64{0, 4}
	if got := HPWL(nl, x, y); got != 7 {
		t.Errorf("HPWL = %v, want 7", got)
	}
}

func TestHPWLRespectsWeightAndOffsets(t *testing.T) {
	nl := &Netlist{
		NumObjs: 2,
		Nets: []Net{{
			Weight: 2,
			Pins:   []PinRef{{Obj: 0, OffX: 1, OffY: 0}, {Obj: 1, OffX: -1, OffY: 0}},
		}},
	}
	x := []float64{0, 10}
	y := []float64{0, 0}
	// Pin positions: 1 and 9 -> span 8, weight 2 -> 16.
	if got := HPWL(nl, x, y); got != 16 {
		t.Errorf("HPWL = %v, want 16", got)
	}
}

func TestHPWLFixedPins(t *testing.T) {
	nl := &Netlist{
		NumObjs: 1,
		Nets: []Net{{
			Weight: 1,
			Pins:   []PinRef{{Obj: 0}, {Obj: Fixed, OffX: 100, OffY: 50}},
		}},
	}
	x := []float64{10}
	y := []float64{20}
	if got := HPWL(nl, x, y); got != 90+30 {
		t.Errorf("HPWL = %v, want 120", got)
	}
}

func TestDegenerateNetsIgnored(t *testing.T) {
	nl := &Netlist{
		NumObjs: 1,
		Nets:    []Net{{Weight: 1, Pins: []PinRef{{Obj: 0}}}, {Weight: 1}},
	}
	x := []float64{5}
	y := []float64{5}
	if HPWL(nl, x, y) != 0 {
		t.Error("single-pin and empty nets must contribute 0")
	}
	for _, m := range []Model{WA{Gamma: 1}, LSE{Gamma: 1}} {
		if got := m.Eval(nl, x, y, nil, nil); got != 0 {
			t.Errorf("%s on degenerate nets = %v", m.Name(), got)
		}
	}
}

// randNetlist builds a random netlist over n objects for property tests.
func randNetlist(rng *rand.Rand, n, nets int) (*Netlist, []float64, []float64) {
	nl := &Netlist{NumObjs: n}
	for i := 0; i < nets; i++ {
		deg := 2 + rng.Intn(6)
		net := Net{Weight: 0.5 + rng.Float64()}
		for j := 0; j < deg; j++ {
			if rng.Float64() < 0.15 {
				net.Pins = append(net.Pins, PinRef{Obj: Fixed, OffX: rng.Float64() * 100, OffY: rng.Float64() * 100})
			} else {
				net.Pins = append(net.Pins, PinRef{
					Obj:  rng.Intn(n),
					OffX: rng.Float64()*4 - 2,
					OffY: rng.Float64()*4 - 2,
				})
			}
		}
		nl.Nets = append(nl.Nets, net)
	}
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64() * 100
		y[i] = rng.Float64() * 100
	}
	return nl, x, y
}

// Property: WA ≤ HPWL ≤ LSE for every random netlist.
func TestModelBracketing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		nl, x, y := randNetlist(rng, 20, 30)
		h := HPWL(nl, x, y)
		wa := WA{Gamma: 2}.Eval(nl, x, y, nil, nil)
		lse := LSE{Gamma: 2}.Eval(nl, x, y, nil, nil)
		if wa > h+1e-6 {
			t.Fatalf("trial %d: WA %v > HPWL %v", trial, wa, h)
		}
		if lse < h-1e-6 {
			t.Fatalf("trial %d: LSE %v < HPWL %v", trial, lse, h)
		}
	}
}

// Property: both models converge to HPWL as gamma -> 0.
func TestGammaConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	nl, x, y := randNetlist(rng, 15, 20)
	h := HPWL(nl, x, y)
	for _, gamma := range []float64{8, 2, 0.5, 0.1} {
		wa := WA{Gamma: gamma}.Eval(nl, x, y, nil, nil)
		lse := LSE{Gamma: gamma}.Eval(nl, x, y, nil, nil)
		waErr := math.Abs(wa-h) / h
		lseErr := math.Abs(lse-h) / h
		if gamma <= 0.1 {
			if waErr > 0.01 {
				t.Errorf("WA at gamma=%v: rel err %v", gamma, waErr)
			}
			if lseErr > 0.01 {
				t.Errorf("LSE at gamma=%v: rel err %v", gamma, lseErr)
			}
		}
	}
	// Error must shrink monotonically with gamma for WA.
	prevErr := math.Inf(1)
	for _, gamma := range []float64{8, 4, 2, 1, 0.5} {
		wa := WA{Gamma: gamma}.Eval(nl, x, y, nil, nil)
		err := math.Abs(wa - h)
		if err > prevErr+1e-9 {
			t.Errorf("WA error grew when gamma shrank to %v", gamma)
		}
		prevErr = err
	}
}

// Property: the WA model is tighter than LSE (its approximation error is
// smaller) on random netlists — the paper's theoretical claim.
func TestWATighterThanLSE(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	waWins := 0
	trials := 40
	for trial := 0; trial < trials; trial++ {
		nl, x, y := randNetlist(rng, 20, 30)
		h := HPWL(nl, x, y)
		waErr := math.Abs(WA{Gamma: 4}.Eval(nl, x, y, nil, nil) - h)
		lseErr := math.Abs(LSE{Gamma: 4}.Eval(nl, x, y, nil, nil) - h)
		if waErr <= lseErr {
			waWins++
		}
	}
	if waWins < trials*3/4 {
		t.Errorf("WA tighter in only %d/%d trials", waWins, trials)
	}
}

// checkGradient compares the analytic gradient against central finite
// differences.
func checkGradient(t *testing.T, m Model, nl *Netlist, x, y []float64) {
	t.Helper()
	n := nl.NumObjs
	gx := make([]float64, n)
	gy := make([]float64, n)
	m.Eval(nl, x, y, gx, gy)
	const h = 1e-5
	for i := 0; i < n; i++ {
		for axis := 0; axis < 2; axis++ {
			coord := x
			grad := gx
			if axis == 1 {
				coord = y
				grad = gy
			}
			orig := coord[i]
			coord[i] = orig + h
			fp := m.Eval(nl, x, y, nil, nil)
			coord[i] = orig - h
			fm := m.Eval(nl, x, y, nil, nil)
			coord[i] = orig
			fd := (fp - fm) / (2 * h)
			if math.Abs(fd-grad[i]) > 1e-4*(1+math.Abs(fd)) {
				t.Errorf("%s grad mismatch obj %d axis %d: analytic %v fd %v", m.Name(), i, axis, grad[i], fd)
			}
		}
	}
}

func TestWAGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	nl, x, y := randNetlist(rng, 8, 12)
	checkGradient(t, WA{Gamma: 3}, nl, x, y)
}

func TestLSEGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	nl, x, y := randNetlist(rng, 8, 12)
	checkGradient(t, LSE{Gamma: 3}, nl, x, y)
}

// Numerical stability: huge coordinates must not produce NaN/Inf thanks to
// the max-shift scheme.
func TestNumericalStability(t *testing.T) {
	nl := twoPin()
	x := []float64{0, 1e7}
	y := []float64{-1e7, 1e7}
	for _, m := range []Model{WA{Gamma: 0.5}, LSE{Gamma: 0.5}} {
		gx := make([]float64, 2)
		gy := make([]float64, 2)
		v := m.Eval(nl, x, y, gx, gy)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s value not finite: %v", m.Name(), v)
		}
		for i := range gx {
			if math.IsNaN(gx[i]) || math.IsNaN(gy[i]) {
				t.Errorf("%s gradient not finite at obj %d", m.Name(), i)
			}
		}
	}
}

// Gradient direction: moving the right object of a two-pin net rightward
// increases wirelength, so its x gradient must be positive and the left
// object's negative.
func TestGradientDirection(t *testing.T) {
	nl := twoPin()
	x := []float64{0, 10}
	y := []float64{0, 0}
	for _, m := range []Model{WA{Gamma: 1}, LSE{Gamma: 1}} {
		gx := make([]float64, 2)
		gy := make([]float64, 2)
		m.Eval(nl, x, y, gx, gy)
		if gx[1] <= 0 || gx[0] >= 0 {
			t.Errorf("%s gradient signs wrong: %v", m.Name(), gx)
		}
	}
}

// Property: translation invariance — shifting every object by a constant
// leaves both models unchanged (fixed pins excluded).
func TestTranslationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	nl := &Netlist{NumObjs: 10}
	for i := 0; i < 15; i++ {
		deg := 2 + rng.Intn(4)
		net := Net{Weight: 1}
		for j := 0; j < deg; j++ {
			net.Pins = append(net.Pins, PinRef{Obj: rng.Intn(10)})
		}
		nl.Nets = append(nl.Nets, net)
	}
	x := make([]float64, 10)
	y := make([]float64, 10)
	for i := range x {
		x[i] = rng.Float64() * 50
		y[i] = rng.Float64() * 50
	}
	f := func(shift float64) bool {
		shift = math.Mod(shift, 1e4)
		if math.IsNaN(shift) {
			return true
		}
		xs := make([]float64, 10)
		ys := make([]float64, 10)
		for i := range x {
			xs[i] = x[i] + shift
			ys[i] = y[i] + shift
		}
		for _, m := range []Model{WA{Gamma: 2}, LSE{Gamma: 2}} {
			a := m.Eval(nl, x, y, nil, nil)
			b := m.Eval(nl, xs, ys, nil, nil)
			if math.Abs(a-b) > 1e-6*(1+math.Abs(a)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// congestedNetlist mirrors the level-0 netlist of the congested 2500-cell
// design (gen.Congested(2500, 1)): 2501 objects on a 684×696 die, its
// exact net degree histogram (3342 nets, 10034 pins, 1816 of them 2-pin),
// 2.8% fixed pins, and the γ the placer uses on that level.
func congestedNetlist(rng *rand.Rand) (nl *Netlist, x, y []float64, gamma float64) {
	const n = 2501
	degrees := []struct{ deg, nets int }{
		{2, 1816}, {3, 655}, {4, 426}, {5, 200}, {6, 113}, {7, 69},
		{8, 26}, {9, 17}, {10, 12}, {11, 5}, {12, 3},
	}
	nl = &Netlist{NumObjs: n}
	for _, d := range degrees {
		for i := 0; i < d.nets; i++ {
			net := Net{Weight: 1}
			for j := 0; j < d.deg; j++ {
				if rng.Float64() < 0.028 {
					net.Pins = append(net.Pins, PinRef{Obj: Fixed, OffX: rng.Float64() * 684, OffY: rng.Float64() * 696})
					continue
				}
				net.Pins = append(net.Pins, PinRef{Obj: rng.Intn(n), OffX: rng.Float64()*8 - 4, OffY: rng.Float64()*12 - 6})
			}
			nl.Nets = append(nl.Nets, net)
		}
	}
	rng.Shuffle(len(nl.Nets), func(i, j int) { nl.Nets[i], nl.Nets[j] = nl.Nets[j], nl.Nets[i] })
	x = make([]float64, n)
	y = make([]float64, n)
	for i := range x {
		x[i] = rng.Float64() * 684
		y[i] = rng.Float64() * 696
	}
	return nl, x, y, 0.8 * 6.9
}

var benchSink float64

// benchEval times Value on the congested netlist with a reused cache (a
// line-search trial), followed by Gradient when grad is set (an accepted
// step), the way the global placer calls them.
func benchEval(b *testing.B, m func(gamma float64) Model, grad bool) {
	nl, x, y, gamma := congestedNetlist(rand.New(rand.NewSource(23)))
	gx := make([]float64, nl.NumObjs)
	gy := make([]float64, nl.NumObjs)
	model := m(gamma)
	c := NewCache(nl)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = model.Value(nl, x, y, c)
		if grad {
			model.Gradient(nl, c, gx, gy)
		}
	}
}

func BenchmarkWAEval(b *testing.B) {
	benchEval(b, func(g float64) Model { return WA{Gamma: g} }, true)
}

func BenchmarkWAValue(b *testing.B) {
	benchEval(b, func(g float64) Model { return WA{Gamma: g} }, false)
}

func BenchmarkLSEEval(b *testing.B) {
	benchEval(b, func(g float64) Model { return LSE{Gamma: g} }, true)
}

// TestSlackBoundsNegativeRounding builds adversarial nets whose pins lie
// within a few ulps of each other (where WA's max and min terms tie and
// rounding alone decides the sign) at coordinates up to the bound r, and
// checks every computed total against −Slack: per net, and summed over a
// netlist of many such nets.
func TestSlackBoundsNegativeRounding(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	negative := 0
	for _, r := range []float64{1, 700, 1e6} {
		for _, gamma := range []float64{1e-3, 0.05, 1, 5.5, 37} {
			nl := &Netlist{}
			var x, y []float64
			for deg := 2; deg <= 40; deg++ {
				for rep := 0; rep < 8; rep++ {
					// A near-coincident cluster: pins on objects a few
					// ulps apart, some with tiny offsets or fixed.
					cx, cy := (2*rng.Float64()-1)*r, (2*rng.Float64()-1)*r
					net := Net{Weight: []float64{0, 1, 3.7}[rng.Intn(3)]}
					for j := 0; j < deg; j++ {
						px := math.Nextafter(cx, math.Inf(2*rng.Intn(2)-1))
						py := cy
						for s := rng.Intn(4); s > 0; s-- {
							py = math.Nextafter(py, math.Inf(2*rng.Intn(2)-1))
						}
						if rng.Intn(8) == 0 {
							net.Pins = append(net.Pins, PinRef{Obj: Fixed, OffX: px, OffY: py})
							continue
						}
						off := 0.0
						if rng.Intn(3) == 0 {
							off = float64(rng.Intn(3)-1) * 0x1p-40
						}
						net.Pins = append(net.Pins, PinRef{Obj: len(x), OffX: off, OffY: -off})
						x = append(x, px)
						y = append(y, py)
					}
					one := &Netlist{Nets: []Net{net}, NumObjs: 0}
					one.NumObjs = len(x)
					nl.Nets = append(nl.Nets, net)
					for _, m := range []Model{WA{Gamma: gamma}, LSE{Gamma: gamma}} {
						v := m.Value(one, x, y, NewCache(one))
						if v < 0 {
							negative++
						}
						if s := Slack(one, r); v < -s {
							t.Fatalf("%s r=%v γ=%v degree %d: value %v below −slack %v", m.Name(), r, gamma, deg, v, -s)
						}
					}
				}
			}
			nl.NumObjs = len(x)
			for _, m := range []Model{WA{Gamma: gamma}, LSE{Gamma: gamma}} {
				if v, s := m.Value(nl, x, y, NewCache(nl)), Slack(nl, r); v < -s {
					t.Fatalf("%s r=%v γ=%v: total %v below −slack %v", m.Name(), r, gamma, v, -s)
				}
			}
		}
	}
	// The nets must actually reach the regime the slack exists for.
	if negative == 0 {
		t.Fatal("no net evaluated below zero; the test is not adversarial")
	}
	t.Logf("%d nets evaluated below zero", negative)
}

func TestSlackRejectsNegativeWeights(t *testing.T) {
	nl := twoPin()
	nl.Nets[0].Weight = -1
	if s := Slack(nl, 10); !math.IsInf(s, 1) {
		t.Errorf("Slack with a negative weight = %v, want +Inf", s)
	}
}
