package telemetry

import (
	"fmt"

	"leaserelease/internal/mem"
)

// Phase indexes one segment of a coherence transaction's critical path.
// The segments are consecutive and disjoint, so for every completed span
// they sum exactly to the transaction's total latency (Complete - Begin).
type Phase int

const (
	// PhaseReqNet: request network traversal, core -> directory (includes
	// mesh jitter and injected message delays).
	PhaseReqNet Phase = iota
	// PhaseQueue: wait in the line's directory FIFO queue (the paper's
	// Assumption 1 queueing delay, plus any injected directory stall).
	PhaseQueue
	// PhaseDirService: directory tag/data service — L2 tag + data access
	// (+DRAM on a cold fill); on the forward path, tag lookup plus the
	// hop to the owning core.
	PhaseDirService
	// PhaseInval: sharer invalidation fan-out beyond the L2 access.
	PhaseInval
	// PhaseDefer: probe deferral behind the owner's lease, bounded by
	// MAX_LEASE_TIME (Proposition 1).
	PhaseDefer
	// PhaseTransfer: data transfer back to the requesting core.
	PhaseTransfer
	// NumPhases is the number of critical-path phases.
	NumPhases
)

// PhaseName returns the display name of a phase under the named coherence
// protocol. The only divergence is PhaseInval: Tardis has no invalidation
// fan-out — its writes jump past read reservations instead — so under
// Tardis that bucket carries tag-only renew/extension service cycles and
// is labeled accordingly. Every other phase (and every phase under MSI)
// keeps its canonical String name.
func PhaseName(p Phase, protocol string) string {
	if protocol == "tardis" && p == PhaseInval {
		return "renew-extend"
	}
	return p.String()
}

func (p Phase) String() string {
	switch p {
	case PhaseReqNet:
		return "req-net"
	case PhaseQueue:
		return "dir-queue"
	case PhaseDirService:
		return "dir-service"
	case PhaseInval:
		return "inval-fanout"
	case PhaseDefer:
		return "probe-defer"
	case PhaseTransfer:
		return "transfer"
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// Span is one reconstructed coherence transaction: a GetS/GetX/upgrade
// request and everything it spawned (forward, deferral, invalidations),
// with a per-phase breakdown of its latency.
type Span struct {
	ID    uint64   // transaction ID minted at the requesting core
	Core  int      // requesting core
	Owner int      // probed owner core on the forward path, else -1
	Line  mem.Line // requested cache line

	Excl     bool // GetX (exclusive) request
	Deferred bool // the owner probe was deferred behind a lease
	Renewal  bool // served as a tag-only timestamp renewal (Tardis)

	Begin, End uint64 // submit and completion cycles

	Phases [NumPhases]uint64 // cycle breakdown; sums to End-Begin
}

// Total returns the span's end-to-end latency in cycles.
func (s *Span) Total() uint64 { return s.End - s.Begin }

// TxnStamps is one coherence transaction's timeline: the pooled request
// carries it, the directory stamps each step where the transaction reaches
// it, and the transaction's one CatTxn event points at it.
type TxnStamps struct {
	Begin, Arrive, Service uint64 // submitted; in the line's queue; at its head
	ServiceLat             uint64 // L2 (and DRAM) cycles; 0 on the forward path
	Extra                  uint64 // invalidation-ack or renewal cycles beyond the access
	Probe, ProbeDone       uint64 // forward path: the probe reached Owner; Owner downgraded
	Owner                  int    // the probed owner, -1 when the directory answered

	Excl, Deferred bool // a GetX; the probe waited behind Owner's lease
	Renewal        bool // served as a tag-only timestamp renewal (Tardis)
}

// TxnStats is the aggregated critical-path cycle accounting of a run's
// coherence transactions, plus the operation-level roll-up maintained by
// the harness's OpEnd calls. All counters cover only spans whose Begin is
// at or after WindowStart.
type TxnStats struct {
	Spans      uint64            // completed transactions counted
	Deferred   uint64            // transactions that hit a lease deferral
	Renewals   uint64            // transactions served as tag-only renewals (Tardis)
	SpanCycles uint64            // sum of span totals
	Phase      [NumPhases]uint64 // per-phase cycle totals across spans

	// Operation-level accounting (filled when the harness brackets ops
	// with OpEnd): OpCycles is total measured operation latency,
	// OpTxnCycles the part spent inside coherence transactions (with its
	// per-phase split in OpPhase), and OpOtherCycles the remainder (L1
	// hits and local compute). OpCycles == OpTxnCycles + OpOtherCycles
	// and OpTxnCycles == sum(OpPhase) by construction, which is what lets
	// a "where the cycles went" table account for 100% of measured
	// operation latency.
	Ops           uint64
	OpCycles      uint64
	OpTxnCycles   uint64
	OpOtherCycles uint64
	OpPhase       [NumPhases]uint64
}

// Spans folds each completed transaction's CatTxn event into a span and the
// span into critical-path cycle accounting. Subscribe OnEvent to CatTxn
// (Recorder.Attach does this, and nothing else subscribes CatTxn: the ledger
// reads completed spans). A transaction's stamps travel with its request, so
// the assembler keeps no per-transaction state and allocates nothing.
type Spans struct {
	// WindowStart excludes transactions beginning before it (the harness
	// sets it to the warm-up boundary so accounting matches the measured
	// window).
	WindowStart uint64

	// OnComplete, when non-nil, observes every completed span in
	// completion order (Recorder.Attach hands each one to the timeline, which
	// draws it, and to the ledger, which charges its deferral). The *Span is
	// the assembler's and valid only during the call; copy it to keep it.
	OnComplete func(*Span)

	span    Span // the span being folded
	stats   TxnStats
	pending []pendingOp // per-core span cycles since the last op boundary
}

// pendingOp accumulates the spans completed on one core since its last
// operation boundary.
type pendingOp struct {
	txnCycles uint64
	phase     [NumPhases]uint64
}

// NewSpans returns an empty span assembler.
func NewSpans() *Spans { return &Spans{} }

// Stats returns a snapshot of the aggregated cycle accounting.
func (sp *Spans) Stats() TxnStats { return sp.stats }

// OnEvent folds one completed transaction, a CatTxn TxnComplete event with
// its stamps, into a span and the span into the aggregates; any other event
// is ignored. Phases are consecutive critical-path segments, so they sum
// exactly to End-Begin; PhaseTransfer is the closing remainder.
func (sp *Spans) OnEvent(e Event) {
	st := e.Stamps
	if e.Cat != CatTxn || e.Kind != TxnComplete || st == nil {
		return
	}
	s := &sp.span
	*s = Span{
		ID: e.Val, Core: e.Core, Owner: st.Owner, Line: e.Line,
		Excl: st.Excl, Deferred: st.Deferred, Renewal: st.Renewal,
		Begin: st.Begin, End: e.Time,
	}
	s.Phases[PhaseReqNet] = st.Arrive - s.Begin
	s.Phases[PhaseQueue] = st.Service - st.Arrive
	if s.Owner >= 0 {
		s.Phases[PhaseDirService] = st.Probe - st.Service
		s.Phases[PhaseDefer] = st.ProbeDone - st.Probe
		s.Phases[PhaseTransfer] = s.End - st.ProbeDone
	} else {
		// A renewal's tag cycles land in the PhaseInval bucket: Tardis
		// replaces invalidation fan-out with rts renew/extension, so the
		// bucket stays the "coherence work beyond the L2 access" slot under
		// either protocol (see PhaseName).
		lat := st.ServiceLat
		if rest := s.End - st.Service; lat > rest {
			lat = rest
		}
		s.Phases[PhaseDirService] = lat
		s.Phases[PhaseInval] = st.Extra
		s.Phases[PhaseTransfer] = s.End - st.Service - lat - st.Extra
	}

	if s.Begin >= sp.WindowStart {
		sp.stats.Spans++
		sp.stats.SpanCycles += s.Total()
		if s.Deferred {
			sp.stats.Deferred++
		}
		if s.Renewal {
			sp.stats.Renewals++
		}
		p := sp.pendingFor(s.Core)
		p.txnCycles += s.Total()
		for i, c := range s.Phases {
			sp.stats.Phase[i] += c
			p.phase[i] += c
		}
	}
	if sp.OnComplete != nil {
		sp.OnComplete(s)
	}
}

func (sp *Spans) pendingFor(core int) *pendingOp {
	for core >= len(sp.pending) {
		sp.pending = append(sp.pending, pendingOp{})
	}
	return &sp.pending[core]
}

// OpEnd closes one data structure operation on a core: the harness calls
// it with the operation's [start, end) cycle window and whether the
// operation lies inside the measurement window. Spans completed on the
// core since the previous boundary are attributed to the operation;
// measured operations roll up into the op-level accounting, unmeasured
// ones only reset the pending state.
func (sp *Spans) OpEnd(core int, start, end uint64, measured bool) {
	p := sp.pendingFor(core)
	if measured {
		sp.stats.Ops++
		sp.stats.OpCycles += end - start
		sp.stats.OpTxnCycles += p.txnCycles
		sp.stats.OpOtherCycles += (end - start) - p.txnCycles
		for i, c := range p.phase {
			sp.stats.OpPhase[i] += c
		}
	}
	*p = pendingOp{}
}

// TxnPhases is the named-field form of a per-phase cycle split.
type TxnPhases struct {
	ReqNet     uint64 `json:"req_net_cycles"`
	QueueWait  uint64 `json:"dir_queue_wait_cycles"`
	DirService uint64 `json:"dir_service_cycles"`
	InvalWait  uint64 `json:"inval_fanout_cycles"`
	DeferWait  uint64 `json:"probe_defer_cycles"`
	Transfer   uint64 `json:"data_transfer_cycles"`
}

func phasesOf(p [NumPhases]uint64) TxnPhases {
	return TxnPhases{
		ReqNet:     p[PhaseReqNet],
		QueueWait:  p[PhaseQueue],
		DirService: p[PhaseDirService],
		InvalWait:  p[PhaseInval],
		DeferWait:  p[PhaseDefer],
		Transfer:   p[PhaseTransfer],
	}
}

// Vec returns the split back in canonical Phase order.
func (t TxnPhases) Vec() [NumPhases]uint64 {
	var v [NumPhases]uint64
	v[PhaseReqNet] = t.ReqNet
	v[PhaseQueue] = t.QueueWait
	v[PhaseDirService] = t.DirService
	v[PhaseInval] = t.InvalWait
	v[PhaseDefer] = t.DeferWait
	v[PhaseTransfer] = t.Transfer
	return v
}

// TxnSummary is the JSON form of TxnStats, as embedded in run reports.
// Phases covers every window transaction; OpPhases only the transactions
// attributed to measured operations, so OpCycles == OpOtherCycles +
// sum(OpPhases) exactly.
type TxnSummary struct {
	Count       uint64    `json:"count"`
	Deferred    uint64    `json:"deferred"`
	Renewals    uint64    `json:"renewals,omitempty"` // omitted under MSI, so its reports are unchanged
	TotalCycles uint64    `json:"total_cycles"`
	Phases      TxnPhases `json:"phases"`

	Ops           uint64     `json:"ops,omitempty"`
	OpCycles      uint64     `json:"op_cycles,omitempty"`
	OpTxnCycles   uint64     `json:"op_txn_cycles,omitempty"`
	OpOtherCycles uint64     `json:"op_other_cycles,omitempty"`
	OpPhases      *TxnPhases `json:"op_phases,omitempty"`
}

// Summary converts the accounting to its JSON form.
func (t *TxnStats) Summary() TxnSummary {
	s := TxnSummary{
		Count: t.Spans, Deferred: t.Deferred, Renewals: t.Renewals, TotalCycles: t.SpanCycles,
		Phases: phasesOf(t.Phase),
		Ops:    t.Ops, OpCycles: t.OpCycles,
		OpTxnCycles: t.OpTxnCycles, OpOtherCycles: t.OpOtherCycles,
	}
	if t.Ops > 0 {
		op := phasesOf(t.OpPhase)
		s.OpPhases = &op
	}
	return s
}
