package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/geom"
	"repro/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenReport builds a fully-populated report from deterministic
// inputs (fake clock, fixed traces, fake resource sampler) so its JSON
// is byte-stable.
func goldenReport() *Report {
	base := time.Date(2024, 5, 1, 12, 0, 0, 0, time.UTC)
	rec := New(Config{CaptureHeatmaps: true, Clock: fakeClock(base, 250*time.Millisecond)})
	rec.sampleRes = fakeSampler()

	gp := rec.StartSpan("gp")
	lvl := gp.StartSpan("level-0")
	round := lvl.StartSpan("round-0")
	round.Add("cg_iters", 30)
	round.End()
	lvl.Add("lambda_rounds", 1)
	lvl.Add("cg_iters", 30)
	lvl.End()
	gp.End()
	rt := rec.StartSpan("routability")
	rt.Add("iters", 2)
	rt.End()

	rec.RecordGPRound(GPRound{
		Level: 0, Phase: "gp", Round: 0,
		Lambda: 0.003, Mu: 0.001,
		CoarseOverflow: 0.42, FineOverflow: 0.61,
		FenceDist: 12.5, HPWL: 1.25e6, CGIters: 30,
		FuncEvals: 151, GradEvals: 29, Screened: 64,
	})
	rec.RecordGPRound(GPRound{
		Level: 0, Phase: "respread", Round: 1,
		Lambda: 0.006, Mu: 0.002,
		CoarseOverflow: 0.08, FineOverflow: 0.15,
		FenceDist: 0, HPWL: 1.31e6, CGIters: 18,
		FuncEvals: 90, GradEvals: 19, Screened: 40,
	})
	rec.RecordRouteRound(RouteRound{Context: "routability-0", Round: 0, Overflow: 240, Rerouted: 512, Batches: 0, WallMS: 12.5})
	rec.RecordRouteRound(RouteRound{Context: "routability-0", Round: 1, Overflow: 36, Rerouted: 120, Batches: 9, WallMS: 4.25})
	rec.RecordHeatmap("final", 2, 2, []float64{0.5, 1.25, 0.75, 1})

	b := db.NewBuilder("golden", geom.NewRect(0, 0, 100, 80))
	b.AddStdCell("c0", 2, 2)
	b.AddMacro("m0", 10, 10, true)
	d := b.MustDesign()

	rep := rec.BuildReport()
	rep.Tool = "placer"
	rep.Design = DescribeDesign(d)
	rep.Config = map[string]any{"model": "wa", "workers": 4}
	rep.Metrics = &metrics.Row{
		Design: "golden", Variant: "wa",
		HPWL: 1.3e6, ScaledHPWL: 1.36e6, RC: 101.5,
		ACE:      []float64{1.2, 1.1, 1.05, 1.0},
		Overflow: 0.08, Overlaps: 0, FenceViol: 0,
		GPTime: 1500 * time.Millisecond, TotalTime: 2250 * time.Millisecond,
	}
	return rep
}

// TestReportGolden pins the run-report JSON schema: any shape change
// must be deliberate (update the golden with -update and bump
// ReportVersion when the change is breaking).
func TestReportGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenReport().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "report.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("report JSON differs from golden file %s\n--- got ---\n%s\n--- want ---\n%s",
			path, buf.Bytes(), want)
	}
}

// TestReportRoundTrip checks the report (including the embedded
// metrics.Row custom marshalling) survives JSON round-tripping.
func TestReportRoundTrip(t *testing.T) {
	rep := goldenReport()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Version != ReportVersion || back.Tool != "placer" {
		t.Errorf("header = %d %q", back.Version, back.Tool)
	}
	if back.Design == nil || back.Design.Name != "golden" || back.Design.Cells != 2 {
		t.Errorf("design = %+v", back.Design)
	}
	if len(back.GPTrace) != 2 || back.GPTrace[1].Phase != "respread" {
		t.Errorf("gp trace = %+v", back.GPTrace)
	}
	if len(back.RouteTrace) != 2 || back.RouteTrace[1].Batches != 9 {
		t.Errorf("route trace = %+v", back.RouteTrace)
	}
	if back.Metrics == nil || back.Metrics.GPTime != 1500*time.Millisecond {
		t.Errorf("metrics = %+v", back.Metrics)
	}
	if len(back.Spans) != 2 || back.Spans[0].Children[0].Counters["lambda_rounds"] != 1 {
		t.Errorf("spans = %+v", back.Spans)
	}
	if len(back.Heatmaps) != 1 || back.Heatmaps[0].Cong[1] != 1.25 {
		t.Errorf("heatmaps = %+v", back.Heatmaps)
	}
}
