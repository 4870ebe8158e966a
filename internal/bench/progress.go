package bench

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"leaserelease/internal/sim"
)

// Progress is the live-introspection hub of a sweep: per-cell progress,
// worker-pool occupancy, and an aggregate simulated-cycle counter from
// which simulated-cycles/s is derived. It is purely host-side — nothing
// reads it from simulation context — so serving it over HTTP alongside
// -parallel never perturbs simulated timing. All counters are atomics; a
// nil *Progress is inert, so call sites need no enablement checks.
type Progress struct {
	start     time.Time
	simCycles atomic.Uint64

	mu    sync.Mutex
	cells []*CellProgress
	pool  *Pool
}

// NewProgress returns an empty hub with the rate clock started.
func NewProgress() *Progress { return &Progress{start: time.Now()} }

// SetPool points the hub at the sweep's worker pool for occupancy
// reporting. Safe with a nil pool (serial run: occupancy is 0 or 1).
func (p *Progress) SetPool(pool *Pool) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.pool = pool
	p.mu.Unlock()
}

// AddSimCycles adds n simulated cycles to the aggregate rate counter.
func (p *Progress) AddSimCycles(n uint64) {
	if p != nil {
		p.simCycles.Add(n)
	}
}

// Cell registers one sweep cell (pending until Start is called). Returns
// nil — still safe to use — when p is nil.
func (p *Progress) Cell(name string) *CellProgress {
	if p == nil {
		return nil
	}
	c := &CellProgress{p: p, name: name}
	p.mu.Lock()
	p.cells = append(p.cells, c)
	p.mu.Unlock()
	return c
}

// Cell states.
const (
	cellPending int32 = iota
	cellRunning
	cellDone
)

// CellProgress tracks one sweep cell's life: pending -> running -> done,
// plus the simulated cycles it has executed. All methods are nil-safe.
type CellProgress struct {
	p      *Progress
	name   string
	state  atomic.Int32
	cycles atomic.Uint64
	engine sim.EngineStats // the cell's latest engine counters; guarded by p.mu
}

// Start marks the cell running (a worker picked it up).
func (c *CellProgress) Start() {
	if c != nil {
		c.state.Store(cellRunning)
	}
}

// AddSimCycles credits n simulated cycles to the cell and the aggregate.
func (c *CellProgress) AddSimCycles(n uint64) {
	if c != nil {
		c.cycles.Add(n)
		c.p.AddSimCycles(n)
	}
}

// Done marks the cell finished.
func (c *CellProgress) Done() {
	if c != nil {
		c.state.Store(cellDone)
	}
}

// ObserveEngine records the cell's engine counters so far (cells report
// between Run chunks, so /metrics moves while a cell executes).
func (c *CellProgress) ObserveEngine(st sim.EngineStats) {
	if c != nil {
		c.p.mu.Lock()
		c.engine = st
		c.p.mu.Unlock()
	}
}

// CellSnapshot is one cell's state in a Snapshot.
type CellSnapshot struct {
	Name      string `json:"name"`
	State     string `json:"state"` // "pending" | "running" | "done"
	SimCycles uint64 `json:"sim_cycles"`
}

// Snapshot is a point-in-time view of the sweep, as served on /progress.
type Snapshot struct {
	CellsTotal   int     `json:"cells_total"`
	CellsRunning int     `json:"cells_running"`
	CellsDone    int     `json:"cells_done"`
	PoolWorkers  int     `json:"pool_workers"`
	PoolBusy     int     `json:"pool_busy"`
	SimCycles    uint64  `json:"sim_cycles"`
	SimCyclesPS  float64 `json:"sim_cycles_per_sec"`
	ElapsedSec   float64 `json:"elapsed_sec"`

	Cells []CellSnapshot `json:"cells"`

	// EngineStats sums the cells' latest engine counters: host-side work
	// done so far, in whatever order the cells ran.
	EngineStats sim.EngineStats `json:"engine_stats"`
}

func cellStateName(s int32) string {
	switch s {
	case cellRunning:
		return "running"
	case cellDone:
		return "done"
	}
	return "pending"
}

// Snapshot captures the current state.
func (p *Progress) Snapshot() Snapshot {
	var s Snapshot
	if p == nil {
		return s
	}
	p.mu.Lock()
	cells := append([]*CellProgress(nil), p.cells...)
	pool := p.pool
	for _, c := range cells {
		s.EngineStats.Add(c.engine)
	}
	p.mu.Unlock()

	s.CellsTotal = len(cells)
	s.Cells = make([]CellSnapshot, 0, len(cells))
	for _, c := range cells {
		st := c.state.Load()
		switch st {
		case cellRunning:
			s.CellsRunning++
		case cellDone:
			s.CellsDone++
		}
		s.Cells = append(s.Cells, CellSnapshot{
			Name: c.name, State: cellStateName(st), SimCycles: c.cycles.Load(),
		})
	}
	s.PoolWorkers, s.PoolBusy = pool.Workers(), pool.Running()
	s.SimCycles = p.simCycles.Load()
	s.ElapsedSec = time.Since(p.start).Seconds()
	if s.ElapsedSec > 0 {
		s.SimCyclesPS = float64(s.SimCycles) / s.ElapsedSec
	}
	return s
}

// promText renders the snapshot in the Prometheus text exposition format
// (as served on /metrics).
func (s Snapshot) promText() string {
	var b []byte
	line := func(format string, args ...interface{}) {
		b = append(b, fmt.Sprintf(format, args...)...)
		b = append(b, '\n')
	}
	line("# HELP leasesim_cells_total Sweep cells registered.")
	line("# TYPE leasesim_cells_total gauge")
	line("leasesim_cells_total %d", s.CellsTotal)
	line("# HELP leasesim_cells_running Sweep cells currently executing.")
	line("# TYPE leasesim_cells_running gauge")
	line("leasesim_cells_running %d", s.CellsRunning)
	line("# HELP leasesim_cells_done Sweep cells finished.")
	line("# TYPE leasesim_cells_done gauge")
	line("leasesim_cells_done %d", s.CellsDone)
	line("# HELP leasesim_pool_workers Host worker goroutines in the pool.")
	line("# TYPE leasesim_pool_workers gauge")
	line("leasesim_pool_workers %d", s.PoolWorkers)
	line("# HELP leasesim_pool_busy Pool workers currently running a cell.")
	line("# TYPE leasesim_pool_busy gauge")
	line("leasesim_pool_busy %d", s.PoolBusy)
	line("# HELP leasesim_sim_cycles_total Simulated cycles executed across all cells.")
	line("# TYPE leasesim_sim_cycles_total counter")
	line("leasesim_sim_cycles_total %d", s.SimCycles)
	line("# HELP leasesim_sim_cycles_per_second Simulated cycles per host wall-clock second.")
	line("# TYPE leasesim_sim_cycles_per_second gauge")
	line("leasesim_sim_cycles_per_second %g", s.SimCyclesPS)
	line("# HELP leasesim_cell_sim_cycles Simulated cycles executed by one sweep cell.")
	line("# TYPE leasesim_cell_sim_cycles counter")
	// Stable order and a unique index label (names may repeat).
	cells := append([]CellSnapshot(nil), s.Cells...)
	sort.SliceStable(cells, func(i, j int) bool { return cells[i].Name < cells[j].Name })
	for i, c := range cells {
		line(`leasesim_cell_sim_cycles{cell=%q,name=%q,state=%q} %d`,
			fmt.Sprintf("%d", i), c.Name, c.State, c.SimCycles)
	}
	for _, c := range []struct {
		name, help string
		v          uint64
	}{
		{"events", "Events executed by the event kernel", s.EngineStats.EventsTotal},
		{"proc_switches", "Coroutine resumes of a simulated core by the driver loop", s.EngineStats.ProcSwitches},
		{"own_wakes", "Wakes a parked core popped for itself, with no switch", s.EngineStats.OwnWakes},
		{"sync_fast_forwards", "Syncs that moved the clock with nothing due first, with no event", s.EngineStats.SyncFastForwards},
		{"sync_wakes", "Syncs that scheduled a wake event", s.EngineStats.SyncWakes},
		{"syncs_skipped", "Syncs an L1 hit did without by running ahead of the event queue", s.EngineStats.SyncsSkipped},
		{"ring_events", "Events popped from the same-cycle ring", s.EngineStats.RingEvents},
		{"bucket_events", "Events popped from a one-cycle bucket of the queue's near tier", s.EngineStats.BucketEvents},
		{"heap_events", "Events popped from the heap behind the near tier", s.EngineStats.HeapEvents},
		{"bucket_overflows", "Near events that found their bucket full and went to the heap", s.EngineStats.BucketOverflows},
	} {
		line("# HELP leasesim_engine_%s_total %s, summed over all cells.", c.name, c.help)
		line("# TYPE leasesim_engine_%s_total counter", c.name)
		line("leasesim_engine_%s_total %d", c.name, c.v)
	}
	line("# HELP leasesim_engine_max_pending Most events queued at once in any one cell.")
	line("# TYPE leasesim_engine_max_pending gauge")
	line("leasesim_engine_max_pending %d", s.EngineStats.MaxPending)
	return string(b)
}

// Handler returns the introspection HTTP handler:
//
//	/progress  JSON Snapshot
//	/metrics   Prometheus text exposition
func (p *Progress) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		enc.Encode(p.Snapshot())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		fmt.Fprint(w, p.Snapshot().promText())
	})
	return mux
}

// Serve binds addr (e.g. ":9090") and serves the introspection endpoints
// in a background goroutine, returning the bound address. The listener
// lives for the rest of the process — sweeps exit when done.
func (p *Progress) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: p.Handler()}
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}
