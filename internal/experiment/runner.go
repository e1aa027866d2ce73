package experiment

// runner.go is the parallel job pool under the Runner and the
// Coordinator: every sweep is a set of independent simulations, and
// runJobs fans them across a bounded pool of goroutines. Determinism is
// preserved by construction: each job's entire input — setup, seed, rate
// — is captured by value before dispatch, nothing is drawn from shared
// state while jobs execute, and results are assembled by job index.
// Parallel output is therefore byte-identical to serial output.

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// workerCount resolves a worker setting: 0 means one worker per
// available CPU (GOMAXPROCS), anything below 1 means serial.
func workerCount(workers int) int {
	if workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		return 1
	}
	return workers
}

// runJobs executes the jobs under a non-nil ctx on at most
// workerCount(workers) goroutines and returns their results assembled in
// job order, regardless of completion order. Each job must capture its
// whole input by value, its seed included, so that its result cannot
// depend on scheduling. With one worker the jobs run serially in the
// calling goroutine. The second return value is the index of the first
// job that failed or never ran (len(jobs) if every job succeeded);
// results at indices before it are always valid, because jobs are
// dispatched in index order. Failure is fail-fast: once any job errors,
// or ctx is cancelled, jobs not yet started are abandoned. The returned
// error is the first failed job's own error, or ctx's error when
// cancellation stopped dispatch before any job failed.
func runJobs[T any](ctx context.Context, workers int, jobs []func() (T, error)) ([]T, int, error) {
	results := make([]T, len(jobs))
	errs := make([]error, len(jobs))
	ran := make([]bool, len(jobs))
	var failed atomic.Bool
	exec := func(i int) {
		results[i], errs[i] = jobs[i]()
		ran[i] = true
		if errs[i] != nil {
			failed.Store(true)
		}
	}

	halted := func() bool {
		return failed.Load() || ctx.Err() != nil
	}
	workers = min(workerCount(workers), len(jobs))
	if workers <= 1 {
		for i := range jobs {
			if halted() {
				break
			}
			exec(i)
		}
	} else {
		indices := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range indices {
					exec(i)
				}
			}()
		}
		for i := range jobs {
			if halted() {
				break
			}
			indices <- i
		}
		close(indices)
		wg.Wait()
	}

	for i := range jobs {
		if errs[i] != nil {
			return results, i, errs[i]
		}
		if !ran[i] {
			// Every job before a failed one was dispatched and ran, so a
			// job that never ran with no failure before it was stopped by
			// cancellation.
			return results, i, ctx.Err()
		}
	}
	return results, len(jobs), nil
}
