package density

import (
	"sync"

	"repro/internal/par"
)

// SetWorkers enables parallel Penalty evaluation with the given worker
// count (≤ 0 selects the shared automatic policy — par.Workers, honoring
// the REPRO_WORKERS override; 1 restores serial evaluation). Results
// match the serial path up to floating-point reassociation in the demand
// reduction, deterministically for a fixed worker count.
func (g *Grid) SetWorkers(w int) {
	w = par.Workers(w)
	g.workers = w
	if w > 1 && len(g.scratch) < w {
		g.scratch = make([]bellScratch, w)
	}
}

// penaltyParallel is the worker-pool version of Penalty.
func (g *Grid) penaltyParallel(objs []Obj, x, y []float64, gx, gy []float64) float64 {
	w := g.workers
	nb := g.NX * g.NY
	n := len(objs)
	var wg sync.WaitGroup
	// Deposit into per-worker slabs.
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			scr := &g.scratch[k]
			scr.ensure(1, nb)
			dst := scr.demand[:nb]
			for i := range dst {
				dst[i] = 0
			}
			g.depositRange(objs, x, y, n*k/w, n*(k+1)/w, dst, scr)
		}(k)
	}
	wg.Wait()
	// Reduce slabs into g.demand over disjoint bin ranges.
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			lo, hi := nb*k/w, nb*(k+1)/w
			dem := g.demand[lo:hi]
			for i := range dem {
				dem[i] = 0
			}
			for j := 0; j < w; j++ {
				slab := g.scratch[j].demand[lo:hi]
				for i := range dem {
					dem[i] += slab[i]
				}
			}
		}(k)
	}
	wg.Wait()
	total := g.penaltyValue()
	if gx == nil && gy == nil {
		return total
	}
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			g.gradientRange(objs, x, y, n*k/w, n*(k+1)/w, gx, gy, &g.scratch[k])
		}(k)
	}
	wg.Wait()
	return total
}
