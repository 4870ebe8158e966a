package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"leaserelease/internal/mem"
)

// Timeline records per-core lease intervals and instant events in the
// Chrome trace-event format, loadable in chrome://tracing and Perfetto
// (ui.perfetto.dev). Each simulated core is one timeline track (tid);
// every lease appears as a slice from countdown start to release, named
// by its cache line, with the release reason in the slice arguments.
type Timeline struct {
	// CyclesPerUS converts simulated cycles to trace microseconds (the
	// trace-event time unit). At the default 1 GHz clock, 1000 cycles
	// = 1 µs of simulated time.
	CyclesPerUS float64

	open   map[openKey]uint64 // countdown-start cycle per (core, line)
	events []chromeEvent
	cores  map[int]bool
	hasDir bool // a txn span used the directory track
}

// dirTid is the synthetic thread id of the directory track; it sits far
// above any plausible core id so the viewer shows it below the cores.
const dirTid = 1 << 20

type openKey struct {
	core int
	line mem.Line
}

// chromeEvent is one JSON object of the trace-event format. Struct (not
// map) fields keep the marshaled byte stream deterministic.
type chromeEvent struct {
	Name  string     `json:"name"`
	Cat   string     `json:"cat,omitempty"`
	Ph    string     `json:"ph"`
	Ts    float64    `json:"ts"`
	Dur   *float64   `json:"dur,omitempty"`
	Pid   int        `json:"pid"`
	Tid   int        `json:"tid"`
	ID    string     `json:"id,omitempty"` // flow / async event id
	Scope string     `json:"s,omitempty"`
	BP    string     `json:"bp,omitempty"` // flow binding point ("e" = enclosing slice)
	Args  *traceArgs `json:"args,omitempty"`
}

type traceArgs struct {
	Line       string `json:"line,omitempty"`
	Reason     string `json:"reason,omitempty"`
	HoldCycles uint64 `json:"hold_cycles,omitempty"`
	Name       string `json:"name,omitempty"`
	Txn        string `json:"txn,omitempty"`
	Cycles     uint64 `json:"cycles,omitempty"`
	Excl       bool   `json:"excl,omitempty"`
	Deferred   bool   `json:"deferred,omitempty"`
	Owner      string `json:"owner,omitempty"`
}

// NewTimeline creates a timeline exporter; cyclesPerUS <= 0 selects the
// 1 GHz default (1000 cycles per microsecond).
func NewTimeline(cyclesPerUS float64) *Timeline {
	if cyclesPerUS <= 0 {
		cyclesPerUS = 1000
	}
	return &Timeline{
		CyclesPerUS: cyclesPerUS,
		open:        make(map[openKey]uint64),
		cores:       make(map[int]bool),
	}
}

func (t *Timeline) us(cycles uint64) float64 { return float64(cycles) / t.CyclesPerUS }

func lineName(l mem.Line) string { return fmt.Sprintf("line %#x", uint64(l)) }

// OnLease consumes one CatLease event. Recorder feeds it; it may also be
// subscribed directly to a Bus.
func (t *Timeline) OnLease(e Event) {
	t.cores[e.Core] = true
	switch e.Kind {
	case LeaseStarted:
		t.open[openKey{e.Core, e.Line}] = e.Time
	case LeaseReleased, LeaseExpired, LeaseEvicted, LeaseForced, LeaseBroken:
		t.closeInterval(e.Core, e.Line, e.Time, LeaseKindName(e.Kind), e.Val)
	case ProbeDeferred:
		t.instant(e.Core, e.Time, "probe deferred", e.Line)
	case LeaseIgnored:
		t.instant(e.Core, e.Time, "lease ignored", e.Line)
	}
}

func (t *Timeline) closeInterval(core int, l mem.Line, now uint64, reason string, hold uint64) {
	k := openKey{core, l}
	start, ok := t.open[k]
	if !ok {
		return // lease never started its countdown (e.g. evicted while pending)
	}
	delete(t.open, k)
	dur := t.us(now - start)
	args := &traceArgs{Line: fmt.Sprintf("%#x", uint64(l)), Reason: reason}
	if hold != NoVal {
		args.HoldCycles = hold
	}
	t.events = append(t.events, chromeEvent{
		Name: lineName(l), Cat: "lease", Ph: "X",
		Ts: t.us(start), Dur: &dur, Pid: 0, Tid: core, Args: args,
	})
}

func (t *Timeline) instant(core int, now uint64, name string, l mem.Line) {
	t.events = append(t.events, chromeEvent{
		Name: name, Cat: "lease", Ph: "i", Scope: "t",
		Ts: t.us(now), Pid: 0, Tid: core,
		Args: &traceArgs{Line: fmt.Sprintf("%#x", uint64(l))},
	})
}

// OnTxnSpan renders one completed coherence-transaction span: an outer
// slice on the requesting core's track with nested per-phase slices (the
// phases are consecutive, so nesting is exact), an async slice on the
// directory track covering the directory's involvement, and a flow arrow
// chain requester -> directory [-> owner] -> requester. The Recorder hands
// it every completed span when a timeline is enabled.
func (t *Timeline) OnTxnSpan(s *Span) {
	t.cores[s.Core] = true
	t.hasDir = true
	id := fmt.Sprintf("%#x", s.ID)
	lineHex := fmt.Sprintf("%#x", uint64(s.Line))

	// Outer transaction slice with the full breakdown in its args.
	dur := t.us(s.End - s.Begin)
	args := &traceArgs{
		Line: lineHex, Txn: id, Cycles: s.End - s.Begin,
		Excl: s.Excl, Deferred: s.Deferred,
	}
	if s.Owner >= 0 {
		args.Owner = fmt.Sprintf("core %d", s.Owner)
	}
	t.events = append(t.events, chromeEvent{
		Name: "txn " + lineName(s.Line), Cat: "txn", Ph: "X",
		Ts: t.us(s.Begin), Dur: &dur, Pid: 0, Tid: s.Core, Args: args,
	})

	// Nested phase slices, laid end to end from Begin.
	cursor := s.Begin
	for p := Phase(0); p < NumPhases; p++ {
		c := s.Phases[p]
		if c != 0 {
			d := t.us(c)
			t.events = append(t.events, chromeEvent{
				Name: p.String(), Cat: "txn", Ph: "X",
				Ts: t.us(cursor), Dur: &d, Pid: 0, Tid: s.Core,
				Args: &traceArgs{Txn: id, Cycles: c},
			})
		}
		cursor += c
	}

	// Directory involvement as an async slice: from request arrival to
	// the end of directory service (probe dispatch on the forward path,
	// service + invalidation fan-out otherwise).
	arrive := s.Begin + s.Phases[PhaseReqNet]
	service := arrive + s.Phases[PhaseQueue]
	dirEnd := service + s.Phases[PhaseDirService] + s.Phases[PhaseInval]
	t.events = append(t.events,
		chromeEvent{
			Name: lineName(s.Line), Cat: "txn", Ph: "b",
			Ts: t.us(arrive), Pid: 0, Tid: dirTid, ID: id,
			Args: &traceArgs{Line: lineHex, Txn: id},
		},
		chromeEvent{
			Name: lineName(s.Line), Cat: "txn", Ph: "e",
			Ts: t.us(dirEnd), Pid: 0, Tid: dirTid, ID: id,
		})

	// Flow arrows: requester -> directory [-> owner] -> requester.
	t.events = append(t.events,
		chromeEvent{Name: "coherence", Cat: "txn", Ph: "s",
			Ts: t.us(s.Begin), Pid: 0, Tid: s.Core, ID: id},
		chromeEvent{Name: "coherence", Cat: "txn", Ph: "t",
			Ts: t.us(arrive), Pid: 0, Tid: dirTid, ID: id})
	if s.Owner >= 0 {
		t.cores[s.Owner] = true
		t.events = append(t.events, chromeEvent{
			Name: "coherence", Cat: "txn", Ph: "t",
			Ts: t.us(service + s.Phases[PhaseDirService]), Pid: 0, Tid: s.Owner, ID: id,
		})
	}
	t.events = append(t.events, chromeEvent{
		Name: "coherence", Cat: "txn", Ph: "f", BP: "e",
		Ts: t.us(s.End), Pid: 0, Tid: s.Core, ID: id,
	})
}

// Finish closes any still-open lease intervals at simulated time now (the
// end of the run). Keys are visited in sorted order so the output stays
// deterministic.
func (t *Timeline) Finish(now uint64) {
	keys := make([]openKey, 0, len(t.open))
	for k := range t.open {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].core != keys[j].core {
			return keys[i].core < keys[j].core
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		t.closeInterval(k.core, k.line, now, "open at end of run", NoVal)
	}
}

// Write emits the trace as a JSON object with a traceEvents array,
// prefixed by thread-name metadata so viewers label each track "core N".
// The output is byte-for-byte deterministic for a given event stream.
func (t *Timeline) Write(w io.Writer) error {
	cores := make([]int, 0, len(t.cores))
	for c := range t.cores {
		cores = append(cores, c)
	}
	sort.Ints(cores)
	all := make([]chromeEvent, 0, len(cores)+1+len(t.events))
	all = append(all, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 0,
		Args: &traceArgs{Name: "leaserelease machine"},
	})
	for _, c := range cores {
		all = append(all, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: c,
			Args: &traceArgs{Name: fmt.Sprintf("core %d", c)},
		})
	}
	if t.hasDir {
		all = append(all, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: dirTid,
			Args: &traceArgs{Name: "directory"},
		})
	}
	all = append(all, t.events...)
	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{all, "ms"}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}
