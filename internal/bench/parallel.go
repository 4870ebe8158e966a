package bench

import (
	"runtime"
	"sync"
)

// Pool is the parallel experiment scheduler: a fixed set of host worker
// goroutines executing independent sweep cells. Every cell owns a private
// machine.Machine (and with it a private sim.Engine), so cells share no
// simulated state and each remains bit-for-bit deterministic; results are
// collected per cell and emitted in the original serial order, which makes
// sweep output byte-identical regardless of the worker count.
//
// A nil *Pool — and a pool of one worker — runs every cell inline on the
// submitting goroutine, reproducing the serial harness exactly.
type Pool struct {
	queue   chan func()
	wg      sync.WaitGroup
	workers int
}

// NewPool starts a pool of the given number of workers; workers <= 0 means
// GOMAXPROCS. A single-worker pool returns nil (serial inline execution).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		return nil
	}
	p := &Pool{queue: make(chan func(), workers), workers: workers}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for f := range p.queue {
				f()
			}
		}()
	}
	return p
}

// Workers returns the pool's worker count (1 for a nil/serial pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Close stops the workers after all submitted cells have finished. Safe on
// a nil pool.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	close(p.queue)
	p.wg.Wait()
}

// inFlight is how many submitted cells the pool holds before a submit
// blocks: one running on each worker and one queued for each, or the one a
// serial pool runs inline.
func (p *Pool) inFlight() int {
	if p == nil {
		return 1
	}
	return 2 * p.workers
}

// submit enqueues one cell. On a nil pool the cell runs inline, so a
// serial run executes cells in exactly the submission order.
func (p *Pool) submit(f func()) {
	if p == nil {
		f()
		return
	}
	p.queue <- f
}

// future is the pending result of one submitted cell.
type future[T any] struct {
	done chan struct{}
	v    T
}

// goCell submits f as one cell on the pool and returns its future. Cells
// must be independent: submitting from a cell can starve the queue.
// MeasureCells submits from the goroutine that gets the results, a bounded
// number of cells ahead of the one it gets.
func goCell[T any](p *Pool, f func() T) *future[T] {
	fu := &future[T]{done: make(chan struct{})}
	p.submit(func() {
		fu.v = f()
		close(fu.done)
	})
	return fu
}

// get blocks until the cell has run and returns its value.
func (f *future[T]) get() T {
	<-f.done
	return f.v
}
