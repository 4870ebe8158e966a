package bench

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
)

// TestPoolDeterminism is the contract behind -parallel: a sweep run on a
// wide worker pool emits byte-identical output to a serial run, because
// every cell owns a private simulated machine and rows are collected by
// future and emitted in submission order. (Run under -race this also
// exercises the pool for data races between concurrent cells.)
func TestPoolDeterminism(t *testing.T) {
	params := Params{Threads: []int{2, 4, 8}, Warm: 20_000, Window: 60_000}

	// A heap-sweep experiment, a measured (telemetry recorder) experiment,
	// and the multi-table one with interleaved submission patterns.
	for _, id := range []string{"fig2", "fig3-counter", "ablate-mesi"} {
		e, ok := find(id)
		if !ok {
			t.Fatalf("experiment %q not found", id)
		}
		var serial bytes.Buffer
		p := params
		p.Pool = nil // serial inline execution
		e.Run(&serial, p)

		var parallel bytes.Buffer
		p.Pool = NewPool(8)
		e.Run(&parallel, p)
		p.Pool.Close()

		if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
			t.Errorf("%s: -parallel 8 output differs from serial run:\nserial:\n%s\nparallel:\n%s",
				id, serial.String(), parallel.String())
		}
		if serial.Len() == 0 {
			t.Errorf("%s: experiment produced no output", id)
		}
	}
}

// TestPoolFutureOrder checks that futures resolve to their own cell's
// value regardless of execution order, and that get is idempotent.
func TestPoolFutureOrder(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var running atomic.Int32
	futures := make([]*future[int], 64)
	for i := range futures {
		futures[i] = goCell(p, func() int {
			running.Add(1)
			return i * i
		})
	}
	for i, fu := range futures {
		if got := fu.get(); got != i*i {
			t.Errorf("future %d = %d, want %d", i, got, i*i)
		}
		if got := fu.get(); got != i*i {
			t.Errorf("future %d second get = %d, want %d", i, got, i*i)
		}
	}
	if n := running.Load(); n != 64 {
		t.Errorf("ran %d cells, want 64", n)
	}
}

// TestPoolOccupancy: a pool of two workers runs two cells at once, and
// Workers reports the fixed pool size (1 for the nil, serial pool).
func TestPoolOccupancy(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	if pool.Workers() != 2 {
		t.Fatalf("Workers() = %d, want 2", pool.Workers())
	}
	// Each cell blocks until both have started: on fewer than two
	// concurrent workers this never returns.
	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(2)
	futures := []*future[int]{
		goCell(pool, func() int { started.Done(); <-release; return 1 }),
		goCell(pool, func() int { started.Done(); <-release; return 2 }),
	}
	started.Wait()
	close(release)
	for i, f := range futures {
		if got := f.get(); got != i+1 {
			t.Errorf("future %d = %d, want %d", i, got, i+1)
		}
	}
	var nilPool *Pool
	if nilPool.Workers() != 1 {
		t.Errorf("nil pool = %d workers, want 1", nilPool.Workers())
	}
}

// TestPoolSerialIsInline checks that workers==1 degenerates to inline
// execution on the submitting goroutine (NewPool returns nil, and a nil
// pool runs cells synchronously in submission order).
func TestPoolSerialIsInline(t *testing.T) {
	if p := NewPool(1); p != nil {
		t.Fatalf("NewPool(1) = %v, want nil (serial)", p)
	}
	var order []int
	for i := 0; i < 8; i++ {
		fu := goCell[int](nil, func() int {
			order = append(order, i)
			return i
		})
		// Inline execution: the future is already resolved at submit time.
		if got := fu.get(); got != i {
			t.Fatalf("inline future = %d, want %d", got, i)
		}
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("inline cells ran out of order: %v", order)
		}
	}
}
