// Command perfbench is the repository benchmark. It generates one
// workload's inputs from a seed, hands the placer only those inputs
// (Bookshelf bundles, HTTP job submissions), checks every output, and
// prints the measured metrics by name and unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With -trace 0 the metrics are the end-to-end set, measured with
// telemetry off; with -trace 1 they are the per-layer set, read from
// the obs run reports and from timers around the benchmark's calls into each
// layer. README.md in this directory describes the workloads, the metrics
// and the layer each one belongs to. Run it through run.sh, from the
// repository root:
//
//	bash perfbench/run.sh --workload flow-congested-est --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench carries one run's settings and accumulates its metrics, its
// operation counts and every failed check.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	// dir is this run's scratch directory (removed at exit); recDir holds
	// the determinism records that outlive the run, keyed by build (a
	// hash of this executable) so that a changed program starts afresh.
	dir, recDir, build string

	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string
}

func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a failed operation or check. Every one counts in failed
// and marks the run incorrect; none is dropped from the medians.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*bench) error{
	"flow-congested-est": func(b *bench) error { return b.runFlow(flowCongestedEst()) },
	"eco-delta-serve":    (*bench).runEco,
}

func main() {
	workload := flag.String("workload", "", "workload name: flow-congested-est or eco-delta-serve")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "minimum length of a flow run's timed phase in seconds (the delta workload serves a fixed sequence of jobs)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with telemetry off; 1: per-layer metrics from a traced run")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload flow-congested-est|eco-delta-serve, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	if err := mainErr(*workload, *seed, *seconds, *trace == 1, run); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, seconds int, traced bool, run func(*bench) error) error {
	wd, err := os.Getwd()
	if err != nil {
		return err
	}
	base := filepath.Join(wd, ".bench_build", "perfbench")
	dir := filepath.Join(base, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(filepath.Join(dir, "tmp"), 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// The serving layer stages inline bundles under the temp directory;
	// keep that inside the checkout too.
	if err := os.Setenv("TMPDIR", filepath.Join(dir, "tmp")); err != nil {
		return err
	}
	build, err := executableHash()
	if err != nil {
		return err
	}
	b := &bench{
		workload: workload, seed: seed, seconds: time.Duration(seconds) * time.Second, traced: traced,
		dir: dir, recDir: filepath.Join(base, "determinism"), build: build,
		metrics: map[string]metric{},
	}
	if err := run(b); err != nil {
		return err
	}
	if b.attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	return b.print(os.Stdout)
}

// print writes a readable table, then the result line.
func (b *bench) print(f *os.File) error {
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	mode := "end-to-end, telemetry off"
	if b.traced {
		mode = "per-layer, traced"
	}
	fmt.Fprintf(f, "workload %s seed %d (%s)\n", b.workload, b.seed, mode)
	for _, n := range names {
		m := b.metrics[n]
		fmt.Fprintf(f, "  %-30s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(f, "  %-30s %16.6g (failed %d / attempted %d)\n", "failed_frac", float64(b.failed)/float64(b.attempted), b.failed, b.attempted)
	for _, p := range b.problems {
		fmt.Fprintln(f, "  CHECK FAILED:", p)
	}
	if err := b.checkDeclared(); err != nil {
		return err
	}
	line, err := json.Marshal(result{
		Correct: len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", line)
	return err
}

// checkDeclared holds the run's metrics to the set BENCHMARK.json
// declares for its mode: every declared metric present with its unit,
// finite, and nothing else.
func (b *bench) checkDeclared() error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	type decl struct{ Name, Unit string }
	var doc struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	want := doc.EndToEnd
	if b.traced {
		want = doc.PerLayer
	}
	for _, d := range want {
		m, ok := b.metrics[d.Name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s was not measured", d.Name)
		case m.Unit != d.Unit:
			return fmt.Errorf("metric %s has unit %s, BENCHMARK.json declares %s", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("metric %s is %v", d.Name, m.Value)
		}
	}
	if len(b.metrics) != len(want) {
		return fmt.Errorf("measured %d metrics, BENCHMARK.json declares %d for this mode", len(b.metrics), len(want))
	}
	return nil
}

// guard is the determinism check across runs of the same code: values a
// run records under a key must equal, bit for bit, what every earlier run
// in this checkout recorded under the same key. Keys that do not depend
// on the seed (the flows' results: the seed only renames cells and nets)
// are shared by all seeds, so the check fires on every run after the
// first.
func (b *bench) guard(key string, vals map[string]float64) error {
	if err := os.MkdirAll(b.recDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(b.recDir, b.build+"-"+strings.ReplaceAll(key, "/", "_")+".json")
	prev := map[string]float64{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &prev); err != nil {
			return fmt.Errorf("determinism record %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	changed := false
	for _, n := range sortedKeys(vals) {
		v := vals[n]
		old, ok := prev[n]
		switch {
		case !ok:
			prev[n] = v
			changed = true
		case old != v:
			b.fail("determinism: %s %s = %v, an earlier run of this code recorded %v", key, n, v, old)
		}
	}
	if !changed {
		return nil
	}
	raw, err := json.Marshal(prev)
	if err != nil {
		return err
	}
	tmp := path + fmt.Sprintf(".%d", os.Getpid())
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// executableHash identifies the running build.
func executableHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// p90 is the nearest-rank 90th percentile of xs. Callers pass enough
// samples that at least ten lie beyond it.
func p90(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(math.Ceil(0.9*float64(len(s))))-1]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
