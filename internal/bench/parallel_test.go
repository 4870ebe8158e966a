package bench

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"leaserelease/internal/machine"
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

// TestPoolFutureOrder checks that MeasureCells yields each cell's own Result
// in declaration order whatever order the cells ran in, and submits a cell
// only when fewer than bound, two per worker or one inline, wait to be yielded.
func TestPoolFutureOrder(t *testing.T) {
	for workers, bound := range map[int]int{1: 1, 4: 8} {
		p := Params{Pool: NewPool(workers)}
		var started atomic.Int32
		cells := make([]Cell, 64)
		for i := range cells {
			cells[i].Variant.Run = func(Params, machine.Config, Row, Options) Result {
				started.Add(1)
				return Result{Ops: uint64(i * i)}
			}
		}
		yielded := 0
		for i, r := range MeasureCells(p, cells) {
			if n := int(started.Load()); i != yielded || r.Ops != uint64(i*i) || n > i+bound {
				t.Errorf("%d workers: cell %d (yield %d): ops %d, %d started; want ops %d, at most %d started", workers, i, yielded, r.Ops, n, i*i, i+bound)
			}
			yielded++
		}
		p.Pool.Close()
		if yielded != len(cells) {
			t.Errorf("%d workers: %d cells yielded, want %d", workers, yielded, len(cells))
		}
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
