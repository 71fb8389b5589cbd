package core

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/route"
)

// TestTelemetryDoesNotPerturbResults pins the observation-only contract
// of internal/obs: the full flow (placement + routed evaluation) must be
// byte-identical with telemetry off and with the most intrusive telemetry
// configuration (trace + heatmap capture), at any worker count.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			place := func(rec *obs.Recorder) (*resultSnapshot, *obs.Recorder) {
				d := gen.MustGenerate(smallCfg())
				if _, err := MustNew(Config{Workers: workers, Obs: rec}).Place(d); err != nil {
					t.Fatal(err)
				}
				m, err := route.EvaluateDesign(d, route.RouterOptions{Workers: workers, Obs: rec})
				if err != nil {
					t.Fatal(err)
				}
				snap := &resultSnapshot{metrics: m}
				for i := range d.Cells {
					snap.pos = append(snap.pos, [2]float64{d.Cells[i].Pos.X, d.Cells[i].Pos.Y})
					snap.orient = append(snap.orient, int(d.Cells[i].Orient))
				}
				return snap, rec
			}

			off, _ := place(nil)
			on, rec := place(obs.New(obs.Config{CaptureHeatmaps: true}))

			for i := range off.pos {
				if off.pos[i] != on.pos[i] || off.orient[i] != on.orient[i] {
					t.Fatalf("cell %d differs with telemetry on: %v/%d vs %v/%d",
						i, off.pos[i], off.orient[i], on.pos[i], on.orient[i])
				}
			}
			if off.metrics.HPWL != on.metrics.HPWL ||
				off.metrics.RC != on.metrics.RC ||
				off.metrics.ScaledHPWL != on.metrics.ScaledHPWL ||
				off.metrics.Overflow != on.metrics.Overflow ||
				off.metrics.RoutedTiles != on.metrics.RoutedTiles {
				t.Fatalf("routed metrics differ with telemetry on: %+v vs %+v", off.metrics, on.metrics)
			}
			for i := range off.metrics.ACE {
				if off.metrics.ACE[i] != on.metrics.ACE[i] {
					t.Fatalf("ACE[%d] differs with telemetry on: %v vs %v",
						i, off.metrics.ACE[i], on.metrics.ACE[i])
				}
			}
			// The enabled run must actually have recorded something, or the
			// comparison above proves nothing.
			if len(rec.GPRounds()) == 0 || len(rec.RouteRounds()) == 0 || len(rec.Heatmaps()) == 0 {
				t.Fatalf("telemetry run recorded nothing: gp=%d route=%d heat=%d",
					len(rec.GPRounds()), len(rec.RouteRounds()), len(rec.Heatmaps()))
			}
		})
	}
}

type resultSnapshot struct {
	pos     [][2]float64
	orient  []int
	metrics route.Metrics
}

// TestSpansCountObjectiveEvaluations pins the objective counters: every
// GP round span carries the CG run's value calls (func_evals), gradient
// calls (grad_evals) and screened trials next to its iterations, every
// level span carries the sums over its rounds, and the gp_trace rows
// carry the same per-round numbers.
func TestSpansCountObjectiveEvaluations(t *testing.T) {
	rec := obs.New(obs.Config{})
	d := gen.MustGenerate(smallCfg())
	if _, err := MustNew(Config{Workers: 1, DisableRoutability: true, DisableDP: true, Obs: rec}).Place(d); err != nil {
		t.Fatal(err)
	}
	var gp *obs.SpanRecord
	for _, s := range rec.BuildReport().Spans {
		if s.Name == "gp" {
			gp = s
		}
	}
	if gp == nil || len(gp.Children) == 0 {
		t.Fatal("no gp level spans recorded")
	}
	rows := rec.GPRounds()
	row := 0
	var screened int64
	for _, lvl := range gp.Children {
		var sum [3]int64
		for _, r := range lvl.Children {
			evals, grads, scr := r.Counters["func_evals"], r.Counters["grad_evals"], r.Counters["screened"]
			iters := r.Counters["cg_iters"]
			// One value and one gradient call start a CG run; every
			// iteration but a final one that stops on the gradient test
			// makes at least one more trial, and an accepted trial is the
			// only kind that costs a gradient.
			if evals == 0 || evals < iters || grads == 0 || grads > evals-scr || scr > evals-1 {
				t.Errorf("%s/%s: func_evals %d, grad_evals %d, screened %d for %d cg_iters", lvl.Name, r.Name, evals, grads, scr, iters)
			}
			if row >= len(rows) {
				t.Fatalf("%s/%s: no gp_trace row", lvl.Name, r.Name)
			}
			g := rows[row]
			row++
			if int64(g.FuncEvals) != evals || int64(g.GradEvals) != grads || int64(g.Screened) != scr || int64(g.CGIters) != iters {
				t.Errorf("%s/%s: gp_trace row %+v, span counters %v", lvl.Name, r.Name, g, r.Counters)
			}
			sum[0] += evals
			sum[1] += grads
			sum[2] += scr
		}
		for k, name := range []string{"func_evals", "grad_evals", "screened"} {
			if got := lvl.Counters[name]; got != sum[k] {
				t.Errorf("%s: %s %d, its rounds sum to %d", lvl.Name, name, got, sum[k])
			}
		}
		if sum[0] == 0 || sum[1] == 0 {
			t.Errorf("%s: no evaluations counted", lvl.Name)
		}
		screened += sum[2]
	}
	if row != len(rows) {
		t.Errorf("%d gp_trace rows, %d round spans", len(rows), row)
	}
	if screened == 0 {
		t.Error("no line-search trial was screened in the whole GP")
	}
}
