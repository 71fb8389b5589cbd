package main

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/eco"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/serve"
)

const (
	ecoClients = 2  // closed-loop clients, one connection each
	ecoDeltas  = 60 // fresh deltas per client, so job_p90_ms has 12 samples beyond it
	ecoGroup   = 4  // every ecoGroup-th submission of a client is a resubmission
	ecoReplays = 8  // deltas replayed in-process, checked against the served results and traced

	// ecoSubs is each client's number of submissions: its fresh deltas
	// and one resubmission after every ecoGroup-1 of them.
	ecoSubs = ecoDeltas / (ecoGroup - 1) * ecoGroup
)

// ecoInput is one generated delta: its bundle and its job spec.
type ecoInput struct {
	bu   bundle
	spec []byte
}

// ecoOp is one submission of the timed phase.
type ecoOp struct {
	idx int // delta index
	hit bool
	sub submission
}

// runEco serves ECO delta jobs against a placed base over HTTP.
func (b *bench) runEco() error {
	cfg := core.Config{Workers: 1}
	base, err := workloadDesign(sbA(), b.seed)
	if err != nil {
		return err
	}
	baseBu, err := writeBundle(base, filepath.Join(b.dir, "base"))
	if err != nil {
		return err
	}
	// Set-up: start the service and place the base as an ordinary job.
	// setup_s is its CPU time, like the flows' (see runFlow).
	cpuSetup := cpuSeconds()
	svc, err := startService(filepath.Join(b.dir, "state"), ecoClients, 1)
	if err != nil {
		return err
	}
	defer func() {
		if svc != nil {
			svc.close() // error path; the success path closes and checks
		}
	}()
	b.attempted++
	baseSub := svc.submit(jobSpec(serve.Spec{Files: baseBu.files, Config: cfg, Evaluate: true}))
	cpuSetup = cpuSeconds() - cpuSetup
	if baseSub.err != nil {
		return fmt.Errorf("base job: %w", baseSub.err)
	}
	placedBase, _, err := baseBu.parse()
	if err != nil {
		return err
	}
	if err := applyPl(placedBase, baseSub.pl); err != nil {
		return fmt.Errorf("base job result: %w", err)
	}
	if msg := illegal(placedBase); msg != "" {
		b.fail("base job result: %s", msg)
	}
	if err := b.guard(b.workload+"/base", map[string]float64{"hpwl": placedBase.HPWL()}); err != nil {
		return err
	}

	// Every input of the timed phase is generated before it starts. The
	// phase serves a fixed sequence of jobs, so the work a run measures
	// does not depend on how fast the program is.
	inputs := make([]ecoInput, ecoClients*ecoDeltas)
	for i := range inputs {
		bu, err := writeBundle(delta(base, b.seed, i), filepath.Join(b.dir, fmt.Sprintf("delta-%d", i)))
		if err != nil {
			return err
		}
		inputs[i] = ecoInput{bu: bu, spec: jobSpec(serve.Spec{Files: bu.files, Config: cfg, Evaluate: true, BaseJob: baseSub.id})}
		inputs[i].bu.files = nil // the spec holds them
	}

	// Timed phase: a closed loop of ecoClients clients.
	runtime.GC() // collect the set-up's garbage outside the timed phase
	meter := startRuntimeMeter()
	cpu0 := cpuSeconds()
	start := time.Now()
	ops := make([][]ecoOp, ecoClients)
	var wg sync.WaitGroup
	for c := 0; c < ecoClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fresh := 0
			for n := 0; n < ecoSubs; n++ {
				if n%ecoGroup == ecoGroup-1 {
					// Resubmit this client's first delta of the group,
					// which has completed.
					idx := ops[c][len(ops[c])-(ecoGroup-1)].idx
					ops[c] = append(ops[c], ecoOp{idx: idx, hit: true, sub: svc.submit(inputs[idx].spec)})
					continue
				}
				idx := ecoClients*fresh + c
				fresh++
				ops[c] = append(ops[c], ecoOp{idx: idx, sub: svc.submit(inputs[idx].spec)})
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	cpu := cpuSeconds() - cpu0
	if b.traced {
		meter.report(b)
	}

	// Check every result: fresh deltas legal, resubmissions cached with
	// the original bytes.
	var all, freshSubs []submission
	var jobMS, hitMS, parses, runs []float64
	var statuses []serve.Status
	pl := map[int][]byte{}
	served := map[int]map[string]float64{} // routed quality from each job's report
	fellBack := 0
	for _, cops := range ops {
		for _, op := range cops {
			if !op.hit {
				pl[op.idx] = op.sub.pl
			}
		}
	}
	for _, cops := range ops {
		for _, op := range cops {
			b.attempted++
			all = append(all, op.sub)
			if op.hit {
				hitMS = append(hitMS, millis(op.sub.total))
			} else {
				jobMS = append(jobMS, millis(op.sub.total))
				freshSubs = append(freshSubs, op.sub)
			}
			if op.sub.err != nil {
				b.fail("delta %d: %v", op.idx, op.sub.err)
				continue
			}
			if op.hit {
				if !op.sub.cached {
					b.fail("resubmission of delta %d (job %s) was not answered from the store", op.idx, op.sub.id)
				} else if !bytes.Equal(op.sub.pl, pl[op.idx]) {
					b.fail("resubmission of delta %d returned other .pl bytes than the original job", op.idx)
				}
				continue
			}
			d, dt, err := inputs[op.idx].bu.parse()
			if err != nil {
				return err
			}
			parses = append(parses, seconds(dt))
			if err := applyPl(d, op.sub.pl); err != nil {
				b.fail("delta %d result: %v", op.idx, err)
			} else if msg := illegal(d); msg != "" {
				b.fail("delta %d result: %s", op.idx, msg)
			}
			st, err := svc.status(op.sub.id)
			if err != nil {
				return err
			}
			statuses = append(statuses, st)
			if st.Started != nil && st.Finished != nil {
				runs = append(runs, seconds(st.Finished.Sub(*st.Started)))
			}
			rep, err := svc.report(op.sub.id)
			if err != nil {
				return err
			}
			if rep.Eco != nil && rep.Eco.FellBack {
				fellBack++
			}
			if served[op.idx], err = reportQuality(rep); err != nil {
				b.fail("delta %d: %v", op.idx, err)
			}
		}
	}

	// Traced: the base job's report gives the full-flow layers (they
	// only feed setup_s here), the jobs' statuses the serving layer.
	if b.traced {
		baseRep, err := svc.report(baseSub.id)
		if err != nil {
			return err
		}
		b.flowLayers(baseRep)
		b.set("bookshelf.parse_s", median(parses), "s")
		b.serveStats(freshSubs, statuses, all)
		b.set("store.hit_p50_ms", median(hitMS), "ms")
	}
	// The replays below run without the service and its retained jobs,
	// so that collections of that heap do not land in their timings.
	err = svc.close()
	svc = nil
	if err != nil {
		return err
	}
	for i := range inputs {
		inputs[i].spec = nil
	}
	runtime.GC()

	// Replay the first deltas in-process: the same repair and evaluation
	// without the serving layer. Their .pl must equal the served bytes.
	basePl, err := eco.ReadPl(bytes.NewReader(baseSub.pl))
	if err != nil {
		return err
	}
	replay := func(rec *obs.Recorder) ([]ecoOut, error) {
		outs := make([]ecoOut, 0, ecoReplays)
		for i := 0; i < ecoReplays; i++ {
			next, _, err := inputs[i].bu.parse()
			if err != nil {
				return nil, err
			}
			o, err := ecoRepair(placedBase, basePl, next, cfg.Workers, rec)
			if err != nil {
				return nil, fmt.Errorf("replaying delta %d: %w", i, err)
			}
			if !bytes.Equal(plBytes(next), pl[i]) {
				b.fail("determinism: delta %d replayed in-process differs from the served result.pl", i)
			} else if !equalVals(o.quality(), served[i]) {
				b.fail("delta %d: the job report scores %v, the replay %v", i, served[i], o.quality())
			}
			outs = append(outs, o)
		}
		return outs, nil
	}
	outs, err := replay(nil)
	if err != nil {
		return err
	}
	// Quality is the mean over the fresh deltas.
	q := map[string]float64{}
	for i := range inputs {
		for k, v := range served[i] {
			q[k] += v / float64(len(inputs))
		}
	}
	g := map[string]float64{}
	for k, v := range q {
		g[k] = v
	}

	if !b.traced {
		b.set("setup_s", cpuSetup, "s")
		b.set("wall_s", median(runs), "s")
		b.set("cpu_s", cpu/float64(len(freshSubs)), "s")
		b.setQuality(q)
		b.set("job_p50_ms", median(jobMS), "ms")
		b.set("job_p90_ms", p90(jobMS), "ms")
		b.set("jobs_per_s", float64(len(all))/elapsed.Seconds(), "1/s")
		b.set("peak_rss_mb", peakRSSMB(), "MiB")
		return b.guard(fmt.Sprintf("%s/seed-%d", b.workload, b.seed), g)
	}

	// Traced: the replays, untraced and then traced, give the repair
	// layers and the telemetry overhead.
	rec := obs.New(obs.Config{SampleResources: true})
	touts, err := replay(rec)
	if err != nil {
		return err
	}
	b.overhead(time.Duration(median(ecoWalls(touts))*1e9), time.Duration(median(ecoWalls(outs))*1e9))
	b.ecoLayers(outs)
	b.set("eco.fallbacks", float64(fellBack+b.ecoNeedFull(outs)), "count")
	b.repairLayers(touts, rec.BuildReport())
	b.set("serve.self_ms", b.metrics["serve.run_ms"].Value-median(ecoWalls(outs))*1e3, "ms")
	g["eco.changed_cells"], g["dp.trials"], g["route.segments"] = b.metrics["eco.changed_cells"].Value, b.metrics["dp.trials"].Value, b.metrics["route.segments"].Value
	return b.guard(fmt.Sprintf("%s/seed-%d", b.workload, b.seed), g)
}

// ecoOut is one in-process ECO repair plus evaluation.
type ecoOut struct {
	res               eco.Result
	m                 route.Metrics
	diff, place, eval time.Duration
	needFull          bool
}

func (o ecoOut) wall() time.Duration { return o.diff + o.place + o.eval }

func (o ecoOut) quality() map[string]float64 { return quality(o.m) }

// reportQuality reads a delta job's routed quality from its run report:
// the metrics row, and the overflow after the evaluation route's last
// round (rip-up rounds only stop when demand no longer changes).
func reportQuality(rep *obs.Report) (map[string]float64, error) {
	if rep.Metrics == nil {
		return nil, errors.New("job report has no metrics")
	}
	q := map[string]float64{"hpwl": rep.Metrics.HPWL, "shpwl": rep.Metrics.ScaledHPWL, "rc": rep.Metrics.RC}
	for _, r := range rep.RouteTrace {
		if r.Context == "evaluate" {
			q["route_overflow"] = r.Overflow
		}
	}
	if _, ok := q["route_overflow"]; !ok {
		return nil, errors.New("job report has no evaluation route trace")
	}
	return q, nil
}

func ecoWalls(outs []ecoOut) []float64 {
	w := make([]float64, len(outs))
	for i, o := range outs {
		w[i] = seconds(o.wall())
	}
	return w
}

// ecoRepair diffs next against the placed base, repairs it in windows
// (eco.DiffDesigns, eco.Place) and routes the result
// (route.EvaluateDesign), timing each call. A delta out of the windowed
// repair's reach returns with needFull set and no evaluation.
func ecoRepair(base *db.Design, basePl *eco.Placement, next *db.Design, workers int, rec *obs.Recorder) (ecoOut, error) {
	var o ecoOut
	t0 := time.Now()
	df := eco.DiffDesigns(base, next)
	t1 := time.Now()
	res, err := eco.Place(next, df, basePl, eco.Options{Workers: workers, Obs: rec})
	t2 := time.Now()
	o.res, o.diff, o.place = res, t1.Sub(t0), t2.Sub(t1)
	if errors.Is(err, eco.ErrNeedFull) {
		o.needFull = true
		return o, nil
	}
	if err != nil {
		return o, err
	}
	o.m, err = route.EvaluateDesign(next, route.RouterOptions{Workers: workers, Obs: rec})
	o.eval = time.Since(t2)
	return o, err
}

func (b *bench) ecoNeedFull(outs []ecoOut) int {
	n := 0
	for _, o := range outs {
		if o.needFull {
			n++
		}
	}
	return n
}

// ecoLayers sets the eco layer's metrics from in-process repairs.
func (b *bench) ecoLayers(outs []ecoOut) {
	var diff, place []float64
	var changed, windows, reuse float64
	for _, o := range outs {
		diff = append(diff, seconds(o.diff))
		place = append(place, seconds(o.place))
		changed += float64(o.res.ChangedCells)
		windows += float64(len(o.res.Windows))
		reuse += o.res.ReuseRatio
	}
	n := float64(len(outs))
	b.set("eco.diff_s", median(diff), "s")
	b.set("eco.place_s", median(place), "s")
	b.set("eco.changed_cells", changed/n, "count")
	b.set("eco.windows", windows/n, "count")
	b.set("eco.reuse_ratio", reuse/n, "ratio")
	b.set("eco.fallbacks", float64(b.ecoNeedFull(outs)), "count")
}

// repairLayers sets the legal, dp and route metrics of the delta
// workload from in-process repairs and the recorder that traced them:
// per delta, the window legalization and DP inside eco.Place and the
// evaluation route.
func (b *bench) repairLayers(outs []ecoOut, rep *obs.Report) {
	var legalT, dpT, eval []float64
	var fallbacks, trials, accepted float64
	for _, o := range outs {
		legalT = append(legalT, seconds(o.res.LegalTime))
		dpT = append(dpT, seconds(o.res.DPTime))
		eval = append(eval, seconds(o.eval))
		fallbacks += float64(o.res.Legal.Fallbacks)
		trials += float64(o.res.DP.Trials)
		accepted += float64(o.res.DP.Swaps + o.res.DP.Reorders + o.res.DP.Shifts)
	}
	n := float64(len(outs))
	b.set("legal.wall_s", median(legalT), "s")
	b.set("legal.fallbacks", fallbacks, "count")
	b.set("dp.wall_s", median(dpT), "s")
	b.set("dp.trials", trials/n, "count")
	b.set("dp.accept_ratio", accepted/max(trials, 1), "ratio")
	segs, rrr := routeCounters(rep)
	b.set("route.wall_s", median(eval), "s")
	b.set("route.segments", segs/n, "count")
	b.set("route.rrr_iters", rrr/n, "count")
	b.set("route.segments_per_s", segs/sum(eval), "1/s")
}

// ecoProbe repairs a few ECO edits of the workload's design against the
// flow's placed result, so the flows report the eco layer too.
func (b *bench) ecoProbe(placed, input *db.Design, workers int) error {
	basePl := eco.FromDesign(placed)
	rec := obs.New(obs.Config{SampleResources: true})
	outs := make([]ecoOut, 0, probeDeltas)
	for i := 0; i < probeDeltas; i++ {
		next := delta(input, b.seed, i)
		b.attempted++
		o, err := ecoRepair(placed, basePl, next, workers, rec)
		if err != nil {
			b.fail("eco probe delta %d: %v", i, err)
			continue
		}
		if msg := illegal(next); !o.needFull && msg != "" {
			b.fail("eco probe delta %d: %s", i, msg)
		}
		outs = append(outs, o)
	}
	if len(outs) == 0 {
		return errors.New("every eco probe delta failed")
	}
	b.ecoLayers(outs)
	return nil
}
