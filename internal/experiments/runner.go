package experiments

import (
	"sync"
	"sync/atomic"
)

// runCells executes cells 0..n-1 on a bounded worker pool. Each cell
// must be independent of the others — in this package every cell
// builds its own rig (engine, cluster, DFS, JobTracker), so cells
// share only concurrency-safe caches (dsCache, MapOutputCache) and
// read-only values (datasets, compiled policies). Callers write each
// cell's result into a pre-sized slice at index i, which keeps the
// assembled output in deterministic enumeration order: tables and
// CSVs are byte-identical at any parallelism, because virtual time
// inside a cell never observes the pool.
//
// parallelism <= 1 runs the cells sequentially on the calling
// goroutine. On error dispatch stops and no new cells are started,
// in-flight cells drain, and the lowest-index recorded error is
// returned.
func runCells(parallelism, n int, cell func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if parallelism > n {
		parallelism = n
	}
	if parallelism <= 1 {
		for i := 0; i < n; i++ {
			if err := cell(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var failed atomic.Bool
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(parallelism)
	for w := 0; w < parallelism; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				if failed.Load() {
					continue
				}
				if err := cell(i); err != nil {
					errs[i] = err
					failed.Store(true)
					cellFailedHook()
				}
			}
		}()
	}
	for i := 0; i < n && !failed.Load(); i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// cellFailedHook runs on a parallel worker right after it has recorded
// a cell failure, before it pulls another index. Tests replace it to
// release gated sibling cells only once the failure is visible, which
// makes the stop-on-error guarantee deterministic to check.
var cellFailedHook = func() {}
