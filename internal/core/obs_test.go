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

// TestSpansCountObjectiveEvaluations pins the func_evals counters: every
// GP round span carries the CG run's objective evaluations next to its
// iterations, and every level span carries the sum over its rounds.
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
	for _, lvl := range gp.Children {
		var sum int64
		for _, r := range lvl.Children {
			evals, iters := r.Counters["func_evals"], r.Counters["cg_iters"]
			// One evaluation starts a CG run, and every iteration but a
			// final one that stops on the gradient test makes at least
			// one more.
			if evals == 0 || evals < iters {
				t.Errorf("%s/%s: func_evals %d for %d cg_iters", lvl.Name, r.Name, evals, iters)
			}
			sum += evals
		}
		if got := lvl.Counters["func_evals"]; got != sum || got == 0 {
			t.Errorf("%s: func_evals %d, its rounds sum to %d", lvl.Name, got, sum)
		}
	}
}
