// Package engine is a deterministic worker pool for independent
// discrete-event simulation runs. Every experiment in this repository
// is a sweep of independent DES executions — each one single-goroutine
// and seeded — so the sweep parallelizes embarrassingly: jobs are
// (index, seed, closure) triples, results are collected into a slice
// indexed by job, and the assembled output is byte-identical for any
// worker count. Only the wall clock changes.
package engine

import (
	"runtime"
	"sync"
)

// Job identifies one unit of a sweep handed to a worker.
type Job struct {
	// Index is the job's position in the sweep, 0-based. Results are
	// collected under this index, which is what makes the assembled
	// output independent of scheduling order.
	Index int
	// Seed is the job's simulation seed, derived from the sweep's base
	// seed and the index (see DeriveSeed) so that adding workers never
	// reshuffles which run gets which randomness.
	Seed int64
}

// DeriveSeed maps (baseSeed, index) to the seed of sweep job index.
// The derivation is the sweep convention used across the harness:
// consecutive indexes get consecutive seeds, so a sweep of n jobs at
// base b covers exactly the seeds b..b+n-1 regardless of worker count
// or completion order.
func DeriveSeed(baseSeed int64, index int) int64 {
	return baseSeed + int64(index)
}

// Pool runs indexed jobs on a fixed number of workers.
type Pool struct {
	workers int
}

// New returns a pool with the given worker count; workers <= 0 selects
// GOMAXPROCS. A 1-worker pool executes jobs strictly in index order,
// which is the reference sequential schedule.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Run executes fn(Job{i, DeriveSeed(baseSeed, i)}) for every i in
// [0, n). Jobs are handed out in index order; at most Workers() run at
// once. If any job returns an error, the lowest-index error is
// returned (regardless of which worker hit it first) and jobs not yet
// started are skipped — in-flight jobs still finish, keeping every
// *completed* job's side effects well-defined.
func (p *Pool) Run(n int, baseSeed int64, fn func(Job) error) error {
	if n <= 0 {
		return nil
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(Job{Index: i, Seed: DeriveSeed(baseSeed, i)}); err != nil {
				return err
			}
		}
		return nil
	}

	errs := make([]error, n)
	var (
		mu     sync.Mutex
		next   int
		failed bool
		wg     sync.WaitGroup
	)
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if failed || next >= n {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				if err := fn(Job{Index: i, Seed: DeriveSeed(baseSeed, i)}); err != nil {
					mu.Lock()
					errs[i] = err
					failed = true
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Map runs fn for every index in [0, n) on the pool and returns the
// results collected by index. It is the typed convenience wrapper
// around [Pool.Run] for sweeps whose jobs produce one value each; like
// Run, it runs nothing for n <= 0.
func Map[T any](p *Pool, n int, baseSeed int64, fn func(Job) (T, error)) ([]T, error) {
	out := make([]T, max(n, 0))
	err := p.Run(n, baseSeed, func(j Job) error {
		v, err := fn(j)
		if err != nil {
			return err
		}
		out[j.Index] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
