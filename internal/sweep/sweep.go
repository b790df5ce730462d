// Package sweep is the parallel sweep-orchestration layer: a bounded
// worker pool that fans independent simulation runs across cores while
// preserving serial semantics.
//
// Every simulation in this repository is a self-contained deterministic
// discrete-event run (its own engine, cluster, fabric, and seeded RNG), so
// runs never observe each other and cross-run parallelism is free: the
// only requirement for byte-identical output is that results are
// *consumed* in submission order. Ordered guarantees exactly that — f runs
// concurrently, collect runs on the calling goroutine in index order — so
// a table built from a parallel sweep is indistinguishable from the serial
// loop it replaced.
//
// Error semantics also match the serial loop: the error returned is the
// one the serial loop would have hit first (lowest submission index), and
// jobs that have not started when an error surfaces are cancelled.
package sweep

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Jobs resolves a worker-count setting: n if positive, otherwise
// GOMAXPROCS (the -j flag convention: -j 0 means "all cores").
func Jobs(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// slot holds one job's outcome while it waits for ordered collection.
type slot[T any] struct {
	v       T
	err     error
	skipped bool
}

// Ordered runs f(0..n-1) on up to workers goroutines (Jobs(workers); 1
// means fully serial) and calls collect(i, v) for each result in index
// order from the calling goroutine. It returns the first error in index
// order — from f or from collect — after cancelling jobs that have not
// started. collect may be nil.
func Ordered[T any](workers, n int, f func(i int) (T, error), collect func(i int, v T) error) error {
	if n <= 0 {
		return nil
	}
	workers = Jobs(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		// Serial fast path: identical to the loop this replaces.
		for i := 0; i < n; i++ {
			v, err := f(i)
			if err != nil {
				return err
			}
			if collect != nil {
				if err := collect(i, v); err != nil {
					return err
				}
			}
		}
		return nil
	}

	res := make([]slot[T], n)
	done := make([]chan struct{}, n) // done[i] closes when res[i] is final
	for i := range done {
		done[i] = make(chan struct{})
	}
	jobs := make(chan int)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if stop.Load() {
					res[i].skipped = true
					close(done[i])
					continue
				}
				v, err := f(i)
				res[i] = slot[T]{v: v, err: err}
				if err != nil {
					stop.Store(true)
				}
				close(done[i])
			}
		}()
	}
	go func() {
		// Feed indices in order so any skipped job is always preceded by
		// the started (and possibly failed) jobs the collector will reach
		// first.
		for i := 0; i < n; i++ {
			jobs <- i
		}
		close(jobs)
	}()
	finish := func() {
		stop.Store(true)
		wg.Wait()
	}
	for i := 0; i < n; i++ {
		<-done[i]
		s := &res[i]
		if s.skipped {
			// The job was cancelled because some job errored first in
			// wall time — but that may be a *later* index, whose error
			// the serial loop would never have reached. Evaluate the
			// skipped job inline so the behavior (and the error
			// returned) is exactly the serial loop's.
			s.v, s.err = f(i)
			s.skipped = false
		}
		if s.err != nil {
			finish()
			return s.err
		}
		if collect != nil {
			if err := collect(i, s.v); err != nil {
				finish()
				return err
			}
		}
	}
	wg.Wait()
	return nil
}
