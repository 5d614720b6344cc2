// Package kernel holds the shared compute kernels behind every convolution
// and matrix-multiplication hot path in the repository: im2col/col2im
// lowering, a register-tiled GEMM, and chunked elementwise primitives, all
// instantiated over both float64 (plaintext training) and uint64 (the 2PC
// ring Z_{2^64}, where Go's native wrapping arithmetic is exactly the ring
// semantics).
//
// Work is spread over a package-level worker pool sized from
// runtime.NumCPU(). The split points never depend on the worker count in a
// way that changes accumulation order — each output row is always reduced
// sequentially — so results are bit-identical for any SetWorkers value,
// which is what lets the 2PC parties stay in lockstep while using however
// many cores they each have.
package kernel

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// workersEnv overrides the default worker count (useful for containerized
// deployments where NumCPU over-reports the usable share); naiveEnv=1
// starts the process on the naive reference kernels, for A/B timing
// through any entry point without code changes.
const (
	workersEnv = "PASNET_KERNEL_WORKERS"
	naiveEnv   = "PASNET_KERNEL_NAIVE"
)

var (
	workers  atomic.Int64
	useNaive atomic.Bool

	poolOnce sync.Once
	jobs     chan poolJob
)

func init() {
	n := runtime.NumCPU()
	if s := os.Getenv(workersEnv); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			n = v
		}
	}
	workers.Store(int64(n))
	if os.Getenv(naiveEnv) == "1" {
		useNaive.Store(true)
	}
}

// Workers returns the current parallelism degree.
func Workers() int { return int(workers.Load()) }

// SetWorkers sets the parallelism degree and returns the previous value.
// n <= 0 resets to runtime.NumCPU(). SetWorkers(1) forces every kernel to
// run on the calling goroutine, which tests use for determinism checks.
func SetWorkers(n int) int {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	return int(workers.Swap(int64(n)))
}

// SetNaive routes Conv2D and every GEMM variant through the retained naive
// reference loops instead of the tiled kernel, and returns the previous
// setting. It exists so benchmarks and equivalence tests can compare the
// two paths through the full protocol stack; both produce bit-identical
// results in both element domains.
func SetNaive(on bool) bool { return useNaive.Swap(on) }

// Naive reports whether the naive reference path is forced.
func Naive() bool { return useNaive.Load() }

// poolJob is one chunk of a parallelFor.
type poolJob struct {
	fn     func(lo, hi int)
	lo, hi int
	wg     *sync.WaitGroup
}

// startPool lazily launches the long-lived workers. The pool is sized from
// NumCPU once; SetWorkers only controls how many chunks a kernel splits
// into, so oversubscribing simply queues chunks.
func startPool() {
	jobs = make(chan poolJob, 4*runtime.NumCPU())
	for i := 0; i < runtime.NumCPU(); i++ {
		go func() {
			for j := range jobs {
				j.fn(j.lo, j.hi)
				j.wg.Done()
			}
		}()
	}
}

// parallelFor runs fn over [0, n) split into chunks of at least grain
// elements, using at most Workers() chunks. The caller's goroutine always
// executes the final chunk, and if the pool's queue is full a chunk runs
// inline instead of blocking — kernels therefore make progress even when
// both 2PC parties issue work concurrently. fn must not itself call
// parallelFor (kernels parallelize exactly one axis).
func parallelFor(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := Workers()
	if grain < 1 {
		grain = 1
	}
	if w <= 1 || n <= grain {
		fn(0, n)
		return
	}
	chunks := (n + grain - 1) / grain
	if chunks > w {
		chunks = w
	}
	if chunks <= 1 {
		fn(0, n)
		return
	}
	poolOnce.Do(startPool)
	size := (n + chunks - 1) / chunks
	var wg sync.WaitGroup
	lo := 0
	for lo+size < n {
		hi := lo + size
		wg.Add(1)
		j := poolJob{fn: fn, lo: lo, hi: hi, wg: &wg}
		select {
		case jobs <- j:
		default:
			fn(lo, hi) // pool saturated: run inline rather than block
			wg.Done()
		}
		lo = hi
	}
	fn(lo, n)
	wg.Wait()
}

// maybeParallel is parallelFor unless the naive option is on, in which
// case the whole range runs serially on the caller — so SetNaive (and
// PASNET_KERNEL_NAIVE=1) pins every GEMM variant to single-threaded
// reference behavior, not just the conv entry points.
func maybeParallel(n, grain int, fn func(lo, hi int)) {
	if useNaive.Load() {
		fn(0, n)
		return
	}
	parallelFor(n, grain, fn)
}

// Range runs fn over [0, n) in parallel chunks when n exceeds the
// elementwise grain, otherwise inline. It is the hook the mpc layer uses
// for truncation and other per-element passes over large shares.
func Range(n int, fn func(lo, hi int)) { parallelFor(n, elemGrain, fn) }
