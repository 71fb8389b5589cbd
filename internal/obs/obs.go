// Package obs is the placer's structured telemetry layer: leveled
// logging on log/slog, hierarchical timed spans with counters
// (stage → round → CG solve), and a trace recorder that captures the
// per-round convergence state of global placement and global routing.
// A run's telemetry is assembled into a versioned, machine-readable
// Report (see report.go) that the CLIs emit with -report.
//
// The disabled state is a nil *Recorder: every method on Recorder and
// Span nil-checks and returns immediately, so instrumented hot paths pay
// one pointer comparison and allocate nothing (guarded by
// BenchmarkDisabled* and the AllocsPerRun tests). Recording is
// observation only — it never mutates placer or router state — so
// placement and routing results are byte-identical with telemetry on or
// off, at any worker count (internal/core's determinism test pins this).
package obs

import (
	"log/slog"
	"sync"
	"time"
)

// Config configures a Recorder.
type Config struct {
	// Logger receives the structured debug/info log stream. Nil disables
	// logging: Log() returns a shared discard logger.
	Logger *slog.Logger
	// CaptureHeatmaps retains a per-round copy of the routed tile
	// congestion map (memory-proportional to rounds × tiles, so opt-in).
	CaptureHeatmaps bool
	// SampleResources snapshots runtime/metrics (CPU seconds, allocation
	// volume, live-heap growth, GC cycles and pauses, goroutines) at every
	// span's start and end, so the run report attributes resource cost per
	// stage (see resource.go). Off, spans keep their pre-sampling cost.
	SampleResources bool
	// Clock overrides time.Now for spans and wall-time measurements
	// (tests inject a fake clock to make timings deterministic).
	Clock func() time.Time
	// OnEvent, when non-nil, is invoked synchronously (outside the
	// recorder lock, from the recording goroutine) for every GP and
	// routing round as it is recorded — the live-progress tap the serving
	// layer streams over SSE. The callback must be fast and must not
	// block; hand the event to a channel or buffer and return.
	OnEvent func(Event)
}

// Event is one live telemetry sample: exactly one of GP and Route is set.
type Event struct {
	GP    *GPRound    `json:"gp,omitempty"`
	Route *RouteRound `json:"route,omitempty"`
}

// Recorder is the telemetry sink for one run. All methods are safe for
// concurrent use and safe on a nil receiver (the disabled fast path).
type Recorder struct {
	log             *slog.Logger
	now             func() time.Time
	start           time.Time
	captureHeatmaps bool
	onEvent         func(Event)
	// sampleRes takes a resource snapshot for span attribution; nil means
	// sampling is off. Tests swap in a deterministic sampler.
	sampleRes func() resSample

	mu    sync.Mutex
	spans []*Span
	gp    []GPRound
	route []RouteRound
	heat  []Heatmap
}

// New builds an enabled recorder.
func New(cfg Config) *Recorder {
	now := cfg.Clock
	if now == nil {
		now = time.Now
	}
	r := &Recorder{
		log:             cfg.Logger,
		now:             now,
		start:           now(),
		captureHeatmaps: cfg.CaptureHeatmaps,
		onEvent:         cfg.OnEvent,
	}
	if cfg.SampleResources {
		r.sampleRes = readResources
	}
	return r
}

// Enabled reports whether telemetry is being recorded. It is the
// nil-check fast path instrumentation sites use to skip argument
// preparation (HPWL evaluation, label formatting) entirely.
func (r *Recorder) Enabled() bool { return r != nil }

var nopLogger = slog.New(slog.DiscardHandler)

// Log returns the structured logger; on a nil or logger-less recorder it
// returns a shared discard logger, so call sites never nil-check.
func (r *Recorder) Log() *slog.Logger {
	if r == nil || r.log == nil {
		return nopLogger
	}
	return r.log
}

// Now reads the recorder's clock (zero time when disabled). Wall-time
// measurements go through this so tests can fake the clock.
func (r *Recorder) Now() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.now()
}

// GPRound is one λ round of global placement: the full convergence state
// NTUplace-style flows are tuned by watching.
type GPRound struct {
	// Level is the multilevel hierarchy level (0 = flattest).
	Level int `json:"level"`
	// Phase is "gp" for the main solve, "respread" for routability-loop
	// respreads.
	Phase string `json:"phase"`
	// Round is the λ-escalation round within the solve.
	Round int `json:"round"`

	Lambda float64 `json:"lambda"`
	Mu     float64 `json:"mu"`
	// CoarseOverflow is the convergence-check overflow (few cells per
	// bin); FineOverflow is at cell-scale resolution.
	CoarseOverflow float64 `json:"coarse_overflow"`
	FineOverflow   float64 `json:"fine_overflow"`
	// FenceDist is the largest center-to-fence distance over fenced
	// objects.
	FenceDist float64 `json:"fence_dist"`
	HPWL      float64 `json:"hpwl"`
	CGIters   int     `json:"cg_iters"`
	// FuncEvals, GradEvals and Screened are the round's objective value
	// calls (line-search trials plus the start point), gradient calls
	// (start point plus accepted steps) and trials rejected on the fence
	// and density terms before the wirelength was computed.
	FuncEvals int `json:"func_evals"`
	GradEvals int `json:"grad_evals"`
	Screened  int `json:"screened"`

	// TMS is when the round was recorded, in milliseconds since recorder
	// creation — the timestamp trace export (trace.go) places counter
	// samples at. Stamped by RecordGPRound.
	TMS float64 `json:"t_ms,omitempty"`
}

// RouteRound is one pass of the global router: the initial pattern pass
// (Round 0) or a rip-up-and-reroute round (Round ≥ 1).
type RouteRound struct {
	// Context labels which routing call this round belongs to
	// ("routability-0", "final", "evaluate", ...).
	Context string `json:"context"`
	Round   int    `json:"round"`
	// Overflow is the total demand above capacity after the round.
	Overflow float64 `json:"overflow"`
	// Rerouted is the number of segments (re)routed this round.
	Rerouted int `json:"rerouted"`
	// Batches is the number of disjoint parallel batches the round's
	// segments partitioned into (0 for the initial pattern pass).
	Batches int `json:"batches"`
	// WallMS is the round's wall-clock time in milliseconds.
	WallMS float64 `json:"wall_ms"`
	// TMS is when the round was recorded, in milliseconds since recorder
	// creation (see GPRound.TMS). Stamped by RecordRouteRound.
	TMS float64 `json:"t_ms,omitempty"`
}

// Heatmap is one captured congestion map (row-major, [ty*NX+tx]).
type Heatmap struct {
	Label string    `json:"label"`
	NX    int       `json:"nx"`
	NY    int       `json:"ny"`
	Cong  []float64 `json:"cong"`
}

// RecordGPRound appends one GP convergence sample and publishes it to the
// OnEvent subscriber.
func (r *Recorder) RecordGPRound(g GPRound) {
	if r == nil {
		return
	}
	g.TMS = durMS(r.now().Sub(r.start))
	r.mu.Lock()
	r.gp = append(r.gp, g)
	r.mu.Unlock()
	if r.onEvent != nil {
		// Copy into a branch-local so the parameter itself never escapes:
		// the hot no-subscriber path stays allocation-free.
		ev := g
		r.onEvent(Event{GP: &ev})
	}
}

// RecordRouteRound appends one routing round sample and publishes it to
// the OnEvent subscriber.
func (r *Recorder) RecordRouteRound(t RouteRound) {
	if r == nil {
		return
	}
	t.TMS = durMS(r.now().Sub(r.start))
	r.mu.Lock()
	r.route = append(r.route, t)
	r.mu.Unlock()
	if r.onEvent != nil {
		ev := t
		r.onEvent(Event{Route: &ev})
	}
}

// HeatmapsEnabled reports whether RecordHeatmap will retain data; call
// sites use it to skip building the congestion map at all.
func (r *Recorder) HeatmapsEnabled() bool {
	return r != nil && r.captureHeatmaps
}

// RecordHeatmap captures a copy of cong under label. A no-op unless
// heatmap capture was requested at construction.
func (r *Recorder) RecordHeatmap(label string, nx, ny int, cong []float64) {
	if !r.HeatmapsEnabled() {
		return
	}
	h := Heatmap{Label: label, NX: nx, NY: ny, Cong: append([]float64(nil), cong...)}
	r.mu.Lock()
	r.heat = append(r.heat, h)
	r.mu.Unlock()
}

// GPRounds returns a copy of the recorded GP trace (nil when disabled).
func (r *Recorder) GPRounds() []GPRound {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]GPRound(nil), r.gp...)
}

// RouteRounds returns a copy of the recorded routing trace.
func (r *Recorder) RouteRounds() []RouteRound {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]RouteRound(nil), r.route...)
}

// Heatmaps returns a copy of the captured heatmap list (the congestion
// slices are shared — callers must not mutate them).
func (r *Recorder) Heatmaps() []Heatmap {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Heatmap(nil), r.heat...)
}
