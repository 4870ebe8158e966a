package bench

import (
	"errors"
	"fmt"
	"io"
	"path"

	"leaserelease/internal/machine"
	"leaserelease/internal/sim"
	"leaserelease/internal/telemetry"
)

// This file is the one sweep path. An experiment is a declaration — a grid
// of rows × variants and the tables read from it. MeasureCells is the only
// code that runs declared cells on the pool: Sweep.Measure hands it a whole
// grid, and runSweep prints an experiment's tables and failures from what
// it measured; leasebench -cell hands it the cells its pattern matches
// (Cells) and prints a report for each.

// Row is one line of an experiment's grid.
type Row struct {
	Threads int
	// Key labels the row's place on a second axis (a structure, a preemption
	// rate); "" where the thread count is the only axis. Val is that place
	// as a number, for variants that compute from it.
	Key string
	Val int
	// Lead holds the row's leading table cells; nil means Key (if any) and
	// the thread count.
	Lead []any
}

// Variant is one measured series of the grid: a workload on a machine
// configuration.
type Variant struct {
	Name string
	// Edit adjusts the cell's machine config, which starts as the paper's
	// default system on the sweep's protocol (Params.cfgFor).
	Edit func(cfg *machine.Config, r Row)
	// Build returns the cell's workload.
	Build func(r Row) Workload
	// Measured attaches a recorder with spans and the lease ledger, for
	// variants whose tables read latency digests, cycle accounting or
	// ledger totals, unless the run brings a recorder of its own. Telemetry
	// is host-side only: the simulated numbers are the same with and
	// without it.
	Measured bool
	// Run, when set, replaces the windowed throughput measurement of Build:
	// fixed-work programs (Result.Cycles is the time to completion and Ops
	// stays 0) and workloads that count what the harness cannot. It
	// attaches o's recorder and checker as the windowed measurement does.
	Run func(p Params, cfg machine.Config, r Row, o Options) Result
}

// always is the Build of a variant whose workload does not depend on the row.
func always(w Workload) func(Row) Workload { return func(Row) Workload { return w } }

// Col is one table column: a header and the cell read from a row's results,
// which are indexed like Sweep.Variants.
type Col struct {
	Head string
	Cell func(res []Result) any
}

// TableSpec declares one printed table. Title, if any, is printed above it.
type TableSpec struct {
	Title string
	Cols  []Col
}

// Sweep is an experiment's declaration at one scale.
type Sweep struct {
	Rows     []Row
	Variants []Variant
	Lead     []string // headers of the rows' leading cells; nil means "threads"
	Tables   []TableSpec
	// HalfWindow halves the measurement window of every cell.
	HalfWindow bool
	// Print replaces the table printer. res is indexed [row][variant].
	Print func(w io.Writer, res [][]Result)
}

// CellFailure is one failed cell of a sweep.
type CellFailure struct {
	Cell string // the cell's CellName
	Err  *RunError
}

// CellName names one cell for failure reports:
// <exp>/<row key>/<variant>/t<threads>, the key only on a second axis.
func CellName(exp string, r Row, v Variant) string {
	return path.Join(exp, r.Key, v.Name, fmt.Sprintf("t%d", r.Threads))
}

// Print reports the failure on w, as leasebench does on stderr under -exp
// and -cell alike: the cell, the cause, the machine state dump and, for a
// panic, the Go stack it was raised on.
func (f CellFailure) Print(w io.Writer) {
	fmt.Fprintf(w, "leasebench: %s FAILED (%s): %s\n", f.Cell, f.Err.Reason, f.Err.Detail)
	if f.Err.Dump != nil {
		fmt.Fprint(w, f.Err.Dump)
	}
	if pe := (*sim.PanicError)(nil); errors.As(f.Err.Cause, &pe) {
		fmt.Fprintf(w, "panic stack:\n%s", pe.Stack)
	}
}

// RunCell measures one cell of the grid on the calling goroutine, with the
// run's observers o.
func (s Sweep) RunCell(p Params, r Row, v Variant, o Options) Result {
	if s.HalfWindow {
		p.Window /= 2
	}
	cfg := p.cfgFor(r.Threads)
	if v.Edit != nil {
		v.Edit(&cfg, r)
	}
	if v.Measured && o.Recorder == nil {
		o.Recorder = telemetry.NewRecorder()
		o.Recorder.EnableSpans()
		o.Recorder.EnableLedger()
	}
	if v.Run != nil {
		return v.Run(p, cfg, r, o)
	}
	return ThroughputOpts(cfg, r.Threads, p.Warm, p.Window, v.Build(r), o)
}

// Cell is one declared cell: a row and a variant of an experiment's sweep,
// and the observers its run attaches.
type Cell struct {
	Name    string // CellName
	Sweep   Sweep
	Row     Row
	Variant Variant
	Options Options
}

// Window is the measurement window the cell runs at scale p.
func (c Cell) Window(p Params) uint64 {
	if c.Sweep.HalfWindow {
		return p.Window / 2
	}
	return p.Window
}

// Cells returns the cells of exps, declared at scale p, whose CellName
// matches pattern (path.Match syntax, so * stops at a slash), in
// declaration order: experiment, row, variant.
func Cells(exps []Experiment, p Params, pattern string) ([]Cell, error) {
	var cells []Cell
	for _, e := range exps {
		s := e.Sweep(p)
		for _, r := range s.Rows {
			for _, v := range s.Variants {
				name := CellName(e.ID, r, v)
				ok, err := path.Match(pattern, name)
				if err != nil {
					return nil, fmt.Errorf("bad -cell pattern %q: %w", pattern, err)
				}
				if ok {
					cells = append(cells, Cell{Name: name, Sweep: s, Row: r, Variant: v})
				}
			}
		}
	}
	return cells, nil
}

// MeasureCells submits every cell to p.Pool and reads the results back in
// order, so what it returns is the same for any pool size.
func MeasureCells(p Params, cells []Cell) []Result {
	futures := make([]*future[Result], len(cells))
	for i, c := range cells {
		futures[i] = goCell(p.Pool, func() Result { return c.Sweep.RunCell(p, c.Row, c.Variant, c.Options) })
	}
	res := make([]Result, len(cells))
	for i, f := range futures {
		res[i] = f.get()
	}
	return res
}

// Measure measures every cell of the grid (MeasureCells). res is indexed
// [row][variant].
func (s Sweep) Measure(p Params) (res [][]Result) {
	cells := make([]Cell, 0, len(s.Rows)*len(s.Variants))
	for _, r := range s.Rows {
		for _, v := range s.Variants {
			cells = append(cells, Cell{Sweep: s, Row: r, Variant: v})
		}
	}
	flat := MeasureCells(p, cells)
	res = make([][]Result, len(s.Rows))
	for i := range res {
		n := len(s.Variants)
		res[i], flat = flat[:n:n], flat[n:]
	}
	return res
}

// runSweep measures the grid, prints the tables, and reports the cells that
// failed: a FAILED line each under the tables, and the return value.
func runSweep(w io.Writer, p Params, exp string, s Sweep) []CellFailure {
	res := s.Measure(p)
	var failed []CellFailure
	for i, r := range s.Rows {
		for j, v := range s.Variants {
			if err := res[i][j].Err; err != nil {
				failed = append(failed, CellFailure{CellName(exp, r, v), err})
			}
		}
	}
	if s.Print != nil {
		s.Print(w, res)
	} else {
		s.printTables(w, res)
	}
	for _, f := range failed {
		fmt.Fprintf(w, "FAILED %s (%s): %s\n", f.Cell, f.Err.Reason, f.Err.Detail)
	}
	return failed
}

func (s Sweep) printTables(w io.Writer, res [][]Result) {
	lead := s.Lead
	if lead == nil {
		lead = []string{"threads"}
	}
	for i, ts := range s.Tables {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if ts.Title != "" {
			fmt.Fprintln(w, ts.Title)
		}
		head := append([]string(nil), lead...)
		for _, c := range ts.Cols {
			head = append(head, c.Head)
		}
		t := NewTable(head...)
		for ri, r := range s.Rows {
			cells := append([]any(nil), r.Lead...)
			if r.Lead == nil {
				if r.Key != "" {
					cells = append(cells, r.Key)
				}
				cells = append(cells, r.Threads)
			}
			for _, c := range ts.Cols {
				cells = append(cells, c.Cell(res[ri]))
			}
			t.Row(cells...)
		}
		t.Print(w)
	}
}

// threadRows is the grid of most experiments: one row per thread count.
func threadRows(threads []int) []Row {
	rows := make([]Row, len(threads))
	for i, n := range threads {
		rows[i] = Row{Threads: n}
	}
	return rows
}

// Metrics a column can show.
func mopsOf(r Result) float64   { return r.MopsPerSec }
func njOf(r Result) float64     { return r.NJPerOp }
func missOf(r Result) float64   { return r.MissesPerOp }
func msgsOf(r Result) float64   { return r.MsgsPerOp }
func abortsOf(r Result) float64 { return r.AbortsPerOp }

// variants is a declaration's variant list, with constructors for the
// columns headed "<variant name> <unit>".
type variants []Variant

func (vs variants) col(v int, unit string, f func(Result) any) Col {
	return Col{vs[v].Name + " " + unit, func(res []Result) any { return f(res[v]) }}
}

func (vs variants) num(v int, unit string, f func(Result) float64) Col {
	return vs.col(v, unit, func(r Result) any { return f(r) })
}

func (vs variants) mops(v int) Col { return vs.num(v, "Mops/s", mopsOf) }
func (vs variants) nj(v int) Col   { return vs.num(v, "nJ/op", njOf) }
func (vs variants) miss(v int) Col { return vs.num(v, "miss/op", missOf) }
func (vs variants) msgs(v int) Col { return vs.num(v, "msgs/op", msgsOf) }

// lat is the variant's operation latency as "p50/p99" cycles; the variant
// must be Measured.
func (vs variants) lat(v int) Col {
	return vs.col(v, "lat p50/p99", func(r Result) any { return fmtP5099(r.OpLatency) })
}

// fmtP5099 renders a latency digest as "p50/p99" cycles.
func fmtP5099(s *telemetry.Summary) string {
	if s == nil || s.Count == 0 {
		return "-"
	}
	return fmt.Sprintf("%d/%d", s.P50, s.P99)
}

// ratioCol is variant a's metric over variant b's (0 when b's is 0).
func ratioCol(head string, a, b int, f func(Result) float64) Col {
	return Col{head, func(res []Result) any { return ratio(f(res[a]), f(res[b])) }}
}

// speedup is the throughput of variant a over variant b.
func speedup(head string, a, b int) Col { return ratioCol(head, a, b, mopsOf) }

// deltaCol is how far variant a's throughput is from variant b's, in percent.
func deltaCol(a, b int) Col {
	return Col{"delta %", func(res []Result) any { return deltaPct(res[b].MopsPerSec, res[a].MopsPerSec) }}
}

// deltaPct returns the relative change new-vs-old in percent; 0 when the
// old value is 0 (no meaningful baseline).
func deltaPct(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return 100 * (new - old) / old
}

// perOpCol is a window counter of variant v per measured operation.
func perOpCol(head string, v int, count func(machine.Stats) uint64) Col {
	return Col{head, func(res []Result) any {
		return float64(count(res[v].Window)) / float64(max(res[v].Ops, 1))
	}}
}

// cyclesTable is the critical-path cycle accounting of Measured variant v:
// mean cycles per measured operation, then the share of that latency in each
// transaction phase and in the non-coherence remainder (L1 hits and local
// compute). The shares sum to 100% by construction (telemetry.TxnStats).
func cyclesTable(p Params, what string, v int) TableSpec {
	col := func(head string, f func(tx *telemetry.TxnSummary) string) Col {
		return Col{head, func(res []Result) any {
			tx := res[v].Txns
			if tx == nil || tx.Ops == 0 || tx.OpCycles == 0 || tx.OpPhases == nil {
				return "-"
			}
			return f(tx)
		}}
	}
	share := func(head string, part func(tx *telemetry.TxnSummary) uint64) Col {
		return col(head, func(tx *telemetry.TxnSummary) string {
			return fmt.Sprintf("%.1f%%", 100*float64(part(tx))/float64(tx.OpCycles))
		})
	}
	cols := []Col{col("cycles/op", func(tx *telemetry.TxnSummary) string {
		return fmt.Sprintf("%.0f", float64(tx.OpCycles)/float64(tx.Ops))
	})}
	for ph := telemetry.Phase(0); ph < telemetry.NumPhases; ph++ {
		// PhaseInval is invalidation fan-out under MSI, renewal service
		// under Tardis; PhaseName heads the column accordingly.
		cols = append(cols, share(telemetry.PhaseName(ph, p.Protocol),
			func(tx *telemetry.TxnSummary) uint64 { return tx.OpPhases.Vec()[ph] }))
	}
	cols = append(cols, share("l1+compute", func(tx *telemetry.TxnSummary) uint64 { return tx.OpOtherCycles }))
	return TableSpec{"where the cycles went (" + what + ", % of measured op latency):", cols}
}

// ledgerTable summarizes whether Measured variant v's leases earned their
// keep, one row per configuration; a lease-free cell prints dashes.
func ledgerTable(what string, v int) TableSpec {
	col := func(head string, f func(l *telemetry.LedgerSummary) any) Col {
		return Col{head, func(res []Result) any {
			if l := res[v].LeaseLedger; l != nil && l.Leases > 0 {
				return f(l)
			}
			return "-"
		}}
	}
	return TableSpec{
		Title: "lease-efficiency ledger (" + what + "):",
		Cols: []Col{
			col("leases", func(l *telemetry.LedgerSummary) any { return l.Leases }),
			col("expired", func(l *telemetry.LedgerSummary) any { return l.Expired }),
			col("efficiency", func(l *telemetry.LedgerSummary) any { return l.Efficiency }),
			col("ops/lease", func(l *telemetry.LedgerSummary) any { return l.Amortization }),
			col("unused cyc", func(l *telemetry.LedgerSummary) any { return l.UnusedCycles }),
			col("wasted cyc", func(l *telemetry.LedgerSummary) any { return l.UnusedCycles + l.ExpiredIdleCycles }),
			col("defer-inflicted cyc", func(l *telemetry.LedgerSummary) any { return l.DeferInflictedCycles }),
		},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
