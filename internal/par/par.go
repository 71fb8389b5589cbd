// Package par centralizes worker-count policy for the data-parallel
// kernels (global routing, estimation, legalization, detailed placement).
// Every knob in the repo
// resolves through Workers so the cap and the environment override live in
// exactly one place.
package par

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// DefaultCap bounds the automatic worker count: the parallel kernels are
// memory-bandwidth bound and saturate well before high core counts on
// typical hosts. Explicit worker counts (flag, config, env) are not capped.
const DefaultCap = 8

// EnvWorkers is the environment variable consulted by Workers when the
// requested count is automatic (≤ 0). It overrides the GOMAXPROCS-derived
// default, e.g. REPRO_WORKERS=16 on a machine where the cap is too low.
const EnvWorkers = "REPRO_WORKERS"

// Workers resolves a worker-count knob: n > 0 is honored as-is; n ≤ 0
// selects the EnvWorkers override when set to a positive integer, and
// otherwise GOMAXPROCS capped at DefaultCap. The result is always ≥ 1.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	if s := os.Getenv(EnvWorkers); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	w := runtime.GOMAXPROCS(0)
	if w > DefaultCap {
		w = DefaultCap
	}
	if w < 1 {
		w = 1
	}
	return w
}

// DefaultWorkers is Workers(0): the automatic choice.
func DefaultWorkers() int { return Workers(0) }

// ForWorker runs fn(worker, i) for every i in [0, n), pulling items off a
// shared atomic cursor with the given number of workers. Item order is
// unspecified across workers, so fn must be a pure function of i writing
// only worker-private state or per-item slots — the pattern every
// deterministic parallel stage in this repo (router batches, DP proposal
// sweeps, legalizer row builds) is built on. With workers ≤ 1 (or n ≤ 1)
// everything runs on the calling goroutine as worker 0.
func ForWorker(n, workers int, fn func(worker, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				fn(k, i)
			}
		}(k)
	}
	wg.Wait()
}

// For is ForWorker for callers that do not need worker-private state.
func For(n, workers int, fn func(i int)) {
	ForWorker(n, workers, func(_, i int) { fn(i) })
}
