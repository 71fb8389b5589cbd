package main

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/serve"
)

// flowWorkload is a full placement flow on one design, with the worker
// count pinned so that results do not depend on the host's cores.
type flowWorkload struct {
	gen gen.Config
	cfg core.Config
}

// flowCongestedEst is the estimator-driven flow on a congested 2500-cell
// design with six routability rounds: respread GP at level 0 does the
// largest share of the work. It is serial too: at two workers its wall
// time followed the shared host's load (18 to 34 s across runs while CPU
// time stayed within 26 to 29 s).
func flowCongestedEst() flowWorkload {
	return flowWorkload{
		gen: gen.Congested(2500, 1),
		cfg: core.Config{Workers: 1, CongestionSource: "estimate", RoutabilityIters: 6},
	}
}

const (
	minFlows     = 2  // flows per run at least, so that a run spans two stretches of the shared host
	setupRepeats = 6  // Bookshelf parses before the first flow and after every flow
	probeHits    = 15 // cached resubmissions in the traced run's serving probe
	probeDeltas  = 3  // ECO edits in the traced flows' eco probe
)

// flowRun is one placement plus evaluation.
type flowRun struct {
	d           *db.Design
	res         core.Result
	m           route.Metrics
	place, eval time.Duration
}

func (f flowRun) wall() time.Duration { return f.place + f.eval }

// placeAndEvaluate places a copy of input and routes the result, the
// way a user of the flow does: core.Placer.Place, then
// route.EvaluateDesign. rec, when non-nil, records both.
func placeAndEvaluate(input *db.Design, cfg core.Config, rec *obs.Recorder) (flowRun, error) {
	cfg.Obs = rec
	p, err := core.New(cfg)
	if err != nil {
		return flowRun{}, err
	}
	f := flowRun{d: input.Clone()}
	runtime.GC() // collect the previous run's garbage outside the timer
	t0 := time.Now()
	if f.res, err = p.Place(f.d); err != nil {
		return f, fmt.Errorf("place: %w", err)
	}
	t1 := time.Now()
	f.m, err = route.EvaluateDesign(f.d, route.RouterOptions{Workers: cfg.Workers, Obs: rec})
	f.eval = time.Since(t1)
	f.place = t1.Sub(t0)
	if err != nil {
		return f, fmt.Errorf("evaluate: %w", err)
	}
	return f, nil
}

func (f flowRun) quality() map[string]float64 { return quality(f.m) }

// quality is the routed quality an evaluation reports, keyed by metric
// name.
func quality(m route.Metrics) map[string]float64 {
	return map[string]float64{
		"hpwl": m.HPWL, "shpwl": m.ScaledHPWL, "rc": m.RC, "route_overflow": m.Overflow,
	}
}

// checkFlow counts one flow and checks its result is legal.
func (b *bench) checkFlow(f flowRun, err error) bool {
	b.attempted++
	if err != nil {
		b.fail("flow: %v", err)
		return false
	}
	if msg := illegal(f.d); msg != "" {
		b.fail("flow result: %s", msg)
		return false
	}
	return true
}

func (b *bench) runFlow(w flowWorkload) error {
	d0, err := workloadDesign(w.gen, b.seed)
	if err != nil {
		return err
	}
	bu, err := writeBundle(d0, filepath.Join(b.dir, "input"))
	if err != nil {
		return err
	}
	// Set-up is the Bookshelf parse, repeated before the first flow and
	// after every flow. setup_s is its CPU time (the hypervisor's steal
	// on the shared host lands in wall time, not in CPU time) and
	// bookshelf.parse_s its wall time.
	var parseCPU, parseWall []float64
	var input *db.Design
	parse := func() error {
		for i := 0; i < setupRepeats; i++ {
			c0 := cpuSeconds()
			d, dt, err := bu.parse()
			if err != nil {
				return err
			}
			input = d
			parseCPU = append(parseCPU, cpuSeconds()-c0)
			parseWall = append(parseWall, seconds(dt))
		}
		return nil
	}
	if err := parse(); err != nil {
		return err
	}
	if b.traced {
		spec := jobSpec(serve.Spec{Files: bu.files, Config: probeConfig(w.cfg.Workers)})
		if err := b.tracedFlow(w, input, spec); err != nil {
			return err
		}
		err := parse()
		b.set("bookshelf.parse_s", median(parseWall), "s")
		return err
	}

	var walls, cpus []float64
	var ref map[string]float64
	start := time.Now()
	for n := 0; n < minFlows || time.Since(start) < b.seconds; n++ {
		c0 := cpuSeconds()
		f, err := placeAndEvaluate(input, w.cfg, nil)
		cpus = append(cpus, cpuSeconds()-c0)
		walls = append(walls, seconds(f.wall()))
		if b.checkFlow(f, err) {
			q := f.quality()
			q["cg_iters"], q["dp_trials"] = float64(f.res.CGIters), float64(f.res.DP.Trials)
			if ref == nil {
				ref = q
				if err := b.guard(b.workload+"/flow", q); err != nil {
					return err
				}
			} else if !equalVals(ref, q) {
				b.fail("determinism: flow %d scored %v, flow 0 scored %v", n, q, ref)
			}
		}
		if err := parse(); err != nil {
			return err
		}
	}
	if ref == nil {
		return errors.New("no flow succeeded")
	}
	b.set("setup_s", median(parseCPU), "s")
	b.set("wall_s", median(walls), "s")
	b.set("cpu_s", median(cpus), "s")
	b.setQuality(ref)
	// A flow is one job, so the job metrics restate its latency. A run
	// has far fewer than the ten flows a tail percentile needs beyond
	// it, so job_p90_ms restates the median too.
	b.set("job_p50_ms", median(walls)*1e3, "ms")
	b.set("job_p90_ms", median(walls)*1e3, "ms")
	b.set("jobs_per_s", float64(len(walls))/sum(walls), "1/s")
	b.set("peak_rss_mb", peakRSSMB(), "MiB")
	return nil
}

// qualityUnits are the units of the routed-quality metrics: wirelength
// in database units, the routing-congestion score RC, and the routed
// overflow in tracks.
var qualityUnits = map[string]string{"hpwl": "dbu", "shpwl": "dbu", "rc": "score", "route_overflow": "tracks"}

func (b *bench) setQuality(q map[string]float64) {
	for k, unit := range qualityUnits {
		b.set(k, q[k], unit)
	}
}

func equalVals(a, b map[string]float64) bool {
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// tracedFlow runs the flow with telemetry off, then on, and reads the
// per-layer metrics from the traced run's report.
func (b *bench) tracedFlow(w flowWorkload, input *db.Design, spec []byte) error {
	meter := startRuntimeMeter()
	u, err := placeAndEvaluate(input, w.cfg, nil)
	meter.report(b)
	if !b.checkFlow(u, err) {
		return fmt.Errorf("untraced flow failed: %v", b.problems)
	}
	rec := obs.New(obs.Config{SampleResources: true})
	t, err := placeAndEvaluate(input, w.cfg, rec)
	if !b.checkFlow(t, err) {
		return fmt.Errorf("traced flow failed: %v", b.problems)
	}
	if !bytes.Equal(plBytes(u.d), plBytes(t.d)) {
		b.fail("determinism: the traced flow's .pl differs from the untraced flow's")
	}
	b.overhead(t.wall(), u.wall())

	rep := rec.BuildReport()
	b.flowLayers(rep)
	segs, rrr := routeCounters(rep)
	b.set("route.wall_s", seconds(t.eval), "s")
	b.set("route.segments", segs, "count")
	b.set("route.rrr_iters", rrr, "count")
	b.set("route.segments_per_s", segs/t.eval.Seconds(), "1/s")
	q := t.quality()
	q["gp.cg_iters"], q["route.segments"], q["dp.trials"] = b.metrics["gp.cg_iters"].Value, segs, b.metrics["dp.trials"].Value
	if err := b.guard(b.workload+"/flow", q); err != nil {
		return err
	}

	if err := b.ecoProbe(t.d, input, w.cfg.Workers); err != nil {
		return err
	}
	svc, err := startService(filepath.Join(b.dir, "state"), 1, w.cfg.Workers)
	if err != nil {
		return err
	}
	probe := b.placeProbe(svc, spec)
	hits := b.resubmit(svc, spec, probe.pl, probeHits)
	b.set("store.hit_p50_ms", median(totalsMS(hits)), "ms")
	if probe.err == nil {
		var st serve.Status
		if st, err = svc.status(probe.id); err == nil {
			b.serveStats([]submission{probe}, []serve.Status{st}, append([]submission{probe}, hits...))
		}
	}
	if cerr := svc.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	// The serving layer's self time: the job's run time less the same
	// placement made in-process.
	direct, err := placeAndEvaluate(input, probeConfig(w.cfg.Workers), nil)
	if err != nil {
		return err
	}
	b.set("serve.self_ms", b.metrics["serve.run_ms"].Value-millis(direct.place), "ms")
	return nil
}

// probeConfig is a minimal-effort placement: one CG iteration of one λ
// round on the flat problem, no routability loop and no detailed
// placement. The flows serve it to measure the serving layer and the
// artifact store on the workload's design without paying for a flow.
func probeConfig(workers int) core.Config {
	return core.Config{
		Workers: workers, DisableMultilevel: true, DisableRoutability: true, DisableDP: true,
		MaxLambdaRounds: 1, GPIterPerRound: 1,
	}
}

// placeProbe submits the workload's bundle as a minimal-effort job.
func (b *bench) placeProbe(svc *service, spec []byte) submission {
	b.attempted++
	p := svc.submit(spec)
	if p.err != nil {
		b.fail("serving probe job: %v", p.err)
	}
	return p
}

// resubmit sends spec n times; each must be answered from the artifact
// store with the bytes want.
func (b *bench) resubmit(svc *service, spec, want []byte, n int) []submission {
	hits := make([]submission, 0, n)
	for i := 0; i < n; i++ {
		b.attempted++
		h := svc.submit(spec)
		hits = append(hits, h)
		switch {
		case h.err != nil:
			b.fail("resubmission: %v", h.err)
		case !h.cached:
			b.fail("resubmission %s was not answered from the store", h.id)
		case !bytes.Equal(h.pl, want):
			b.fail("resubmission %s returned other .pl bytes than the probe job", h.id)
		}
	}
	return hits
}
