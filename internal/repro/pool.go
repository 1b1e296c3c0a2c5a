// Worker pool for the experiment runners: independent grid points fan out
// across OS threads while every simulation stays single-threaded and
// deterministic per seed. Results are collected by point index, never by
// completion order, so a parallel run's output is byte-identical to a
// serial one.
package repro

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers normalizes a -j flag value: non-positive means one worker per
// available CPU (GOMAXPROCS).
func Workers(j int) int {
	if j <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return j
}

// ForEachW runs fn(worker, 0..n-1) across up to workers goroutines. Every
// index runs regardless of other indices' failures; the returned error is
// the smallest-index one, so the outcome does not depend on completion
// order. A panic inside fn is captured into that index's error instead of
// killing the process. The worker id (0..workers-1) lets callers that report
// live progress attribute in-flight points to workers; it must not influence
// results — it is observability only.
func ForEachW(n, workers int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = runGuarded(w, i, fn)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runGuarded invokes fn(w, i), converting a panic into an error carrying
// the stack, so one broken grid point reports instead of tearing down the
// whole sweep.
func runGuarded(w, i int, fn func(int, int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("point %d panicked: %v\n%s", i, r, debug.Stack())
		}
	}()
	return fn(w, i)
}
