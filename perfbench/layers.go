package main

import (
	"strings"
	"time"

	"repro/internal/obs"
)

// Per-layer metrics read from an obs run report. The report's root spans
// are the attribution keys (lower, coarsen, gp, routability, orient,
// legalize, dp, route, eco); README.md maps every metric to its key.

// roots returns the report's root spans with the given name.
func roots(rep *obs.Report, name string) []*obs.SpanRecord {
	var out []*obs.SpanRecord
	for _, s := range rep.Spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// visit calls fn on s and every span below it.
func visit(s *obs.SpanRecord, fn func(*obs.SpanRecord)) {
	fn(s)
	for _, c := range s.Children {
		visit(c, fn)
	}
}

// rootMS sums the durations of the named root spans.
func rootMS(rep *obs.Report, name string) float64 {
	t := 0.0
	for _, s := range roots(rep, name) {
		t += s.DurMS
	}
	return t
}

// flowLayers sets the metrics of the full-flow stages from a placement
// report: lowering, coarsening, GP per level, the routability loop,
// orientation, legalization and detailed placement.
func (b *bench) flowLayers(rep *obs.Report) {
	b.set("lower.wall_s", rootMS(rep, "lower")/1e3, "s")
	b.set("orient.wall_s", rootMS(rep, "orient")/1e3, "s")

	levels, objs, nets := 0.0, 0.0, 0.0
	for _, s := range roots(rep, "coarsen") {
		levels = float64(s.Counters["levels"])
		if n := len(s.Children); n > 0 {
			c := s.Children[n-1] // the coarsest level is built last
			objs, nets = float64(c.Counters["objects"]), float64(c.Counters["nets"])
		}
	}
	b.set("cluster.wall_s", rootMS(rep, "coarsen")/1e3, "s")
	b.set("cluster.levels", levels, "count")
	b.set("cluster.coarsest_objects", objs, "count")
	b.set("cluster.coarsest_nets", nets, "count")

	var coarse, level0, cg, lambda float64
	for _, s := range roots(rep, "gp") {
		for _, l := range s.Children {
			if l.Name == "level-0" {
				level0 += l.DurMS
			} else {
				coarse += l.DurMS
			}
			cg += float64(l.Counters["cg_iters"])
			lambda += float64(l.Counters["lambda_rounds"])
		}
	}
	gpMS := rootMS(rep, "gp")
	b.set("gp.wall_s", gpMS/1e3, "s")
	b.set("gp.coarse_wall_s", coarse/1e3, "s")
	b.set("gp.level0_wall_s", level0/1e3, "s")
	b.set("gp.cg_iters", cg, "count")
	b.set("gp.lambda_rounds", lambda, "count")
	b.set("gp.ms_per_cg_iter", gpMS/max(cg, 1), "ms")

	var respread, respreadCG, routeMS, routeCalls, inflated, estRounds float64
	for _, s := range roots(rep, "routability") {
		estRounds += float64(s.Counters["estimate_rounds"])
		visit(s, func(c *obs.SpanRecord) {
			switch {
			case c.Name == "respread":
				respread += c.DurMS
				for _, r := range c.Children {
					respreadCG += float64(r.Counters["cg_iters"])
				}
			case c.Name == "route":
				routeMS += c.DurMS
				routeCalls++
			case strings.HasPrefix(c.Name, "iter-"):
				inflated += float64(c.Counters["inflated"])
			}
		})
	}
	loopMS := rootMS(rep, "routability")
	b.set("routability.wall_s", loopMS/1e3, "s")
	b.set("routability.respread_wall_s", respread/1e3, "s")
	// Self time: the loop's own work (estimation, inflation, net
	// weighting), without the respread GP and the router calls inside it.
	b.set("routability.self_s", (loopMS-respread-routeMS)/1e3, "s")
	b.set("routability.respread_cg_iters", respreadCG, "count")
	b.set("routability.estimate_rounds", estRounds, "count")
	b.set("routability.route_calls", routeCalls, "count")
	b.set("routability.inflated_cells", inflated, "count")

	fallbacks, trials, accepted := 0.0, 0.0, 0.0
	for _, s := range roots(rep, "legalize") {
		fallbacks += float64(s.Counters["fallbacks"])
	}
	for _, s := range roots(rep, "dp") {
		trials += float64(s.Counters["trials"])
		accepted += float64(s.Counters["swaps"] + s.Counters["reorders"] + s.Counters["shifts"])
	}
	b.set("legal.wall_s", rootMS(rep, "legalize")/1e3, "s")
	b.set("legal.fallbacks", fallbacks, "count")
	b.set("dp.wall_s", rootMS(rep, "dp")/1e3, "s")
	b.set("dp.trials", trials, "count")
	b.set("dp.accept_ratio", accepted/max(trials, 1), "ratio")
}

// routeCounters sums the router's work counters over the report's root
// route spans (one per evaluation).
func routeCounters(rep *obs.Report) (segments, rrrIters float64) {
	for _, s := range roots(rep, "route") {
		segments += float64(s.Counters["segments"])
		rrrIters += float64(s.Counters["rrr_iters"])
	}
	return segments, rrrIters
}

// runtimeMeter measures the Go runtime's collector and allocation work
// over one phase.
type runtimeMeter struct{ start obs.RuntimeSnapshot }

func startRuntimeMeter() runtimeMeter { return runtimeMeter{obs.ReadRuntimeSnapshot()} }

func (m runtimeMeter) report(b *bench) {
	end := obs.ReadRuntimeSnapshot()
	b.set("go.gc_cycles", float64(end.GCCycles-m.start.GCCycles), "count")
	b.set("go.gc_pause_ms", (end.GCPauseSeconds-m.start.GCPauseSeconds)*1e3, "ms")
	b.set("go.alloc_mb", float64(end.TotalAllocBytes-m.start.TotalAllocBytes)/(1<<20), "MiB")
}

// overhead reports the telemetry overhead: the same operation's wall
// with the obs recorder on, over its wall with the recorder off, minus 1.
func (b *bench) overhead(traced, untraced time.Duration) {
	b.set("obs.overhead_frac", traced.Seconds()/untraced.Seconds()-1, "ratio")
}
