package telemetry

// Recorder is the standard bus consumer: it folds the event stream into
// cycle-domain histograms (lease hold time, probe-deferral delay,
// directory queue occupancy), the per-line hot-line profile, and an
// optional timeline. OpLatency is not bus-fed — the bench harness
// observes it directly around each data structure operation.
//
// One Recorder serves one machine/run; Attach it to the machine's bus
// before the simulation starts.
type Recorder struct {
	OpLatency  Hist // per-operation latency, cycles (fed by the harness)
	LeaseHold  Hist // lease start -> release/expire/break, cycles
	ProbeDefer Hist // probe deferral delay behind a lease, cycles
	DirQueue   Hist // per-line directory queue occupancy at arrival

	Lines HotLines

	// Timeline, when non-nil (EnableTimeline), collects per-core lease
	// intervals for Chrome-trace export.
	Timeline *Timeline

	// Spans, when non-nil (EnableSpans), folds CatTxn events into
	// per-transaction spans and critical-path cycle accounting. Attach
	// subscribes CatTxn only when it is set, preserving the zero-overhead
	// disabled path.
	Spans *Spans

	// Ledger, when non-nil (EnableLedger), folds lease-lifecycle events and
	// completed spans into the per-line lease-efficiency ledger.
	Ledger *Ledger

	onComplete func(*Span) // the spans' OnComplete before Attach
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// EnableTimeline attaches a timeline exporter (see NewTimeline for the
// cyclesPerUS convention) and returns it.
func (r *Recorder) EnableTimeline(cyclesPerUS float64) *Timeline {
	r.Timeline = NewTimeline(cyclesPerUS)
	return r.Timeline
}

// EnableSpans attaches a span assembler and returns it. Call before
// Attach; when a timeline is also enabled, completed spans flow into it
// as nested transaction slices.
func (r *Recorder) EnableSpans() *Spans {
	r.Spans = NewSpans()
	return r.Spans
}

// EnableLedger attaches a lease-efficiency ledger and returns it, enabling
// spans too unless they already are: the ledger reads completed spans.
// Call before Attach.
func (r *Recorder) EnableLedger() *Ledger {
	if r.Spans == nil {
		r.EnableSpans()
	}
	r.Ledger = NewLedger()
	return r.Ledger
}

// Attach subscribes the recorder to every category it consumes. CatTxn is
// subscribed only when spans are enabled, so the transaction-ID minting fast
// path (Bus.Wants(CatTxn)) stays cold otherwise. An OnComplete set before
// Attach still sees every span, after the timeline and the ledger. The
// hot-line traffic stays on the bus's TrafficSource.
func (r *Recorder) Attach(b *Bus) {
	b.Subscribe(CatLease, r.onLease)
	b.Subscribe(CatDirQueue, func(e Event) { r.DirQueue.Observe(e.Val) })
	if r.Spans != nil {
		r.onComplete = r.Spans.OnComplete
		r.Spans.OnComplete = r.onSpan
		b.Subscribe(CatTxn, r.Spans.OnEvent)
	}
}

// onSpan hands one completed span to the timeline and the ledger.
func (r *Recorder) onSpan(s *Span) {
	if r.Timeline != nil {
		r.Timeline.OnTxnSpan(s)
	}
	if r.Ledger != nil {
		r.Ledger.OnSpan(s)
	}
	if r.onComplete != nil {
		r.onComplete(s)
	}
}

func (r *Recorder) onLease(e Event) {
	switch e.Kind {
	case LeaseCreated:
		r.Lines.get(e.Line).Leases++
	case LeaseReleased, LeaseExpired, LeaseEvicted, LeaseForced, LeaseBroken:
		if e.Val != NoVal {
			r.LeaseHold.Observe(e.Val)
		}
		if e.Kind == LeaseBroken {
			r.Lines.get(e.Line).Breaks++
		}
	case ProbeDeferred:
		r.Lines.get(e.Line).Deferred++
	case ProbeServed:
		if e.Val != NoVal {
			r.ProbeDefer.Observe(e.Val)
			r.Lines.get(e.Line).DeferredCycles += e.Val
		}
	}
	if r.Timeline != nil {
		r.Timeline.OnLease(e)
	}
	if r.Ledger != nil {
		r.Ledger.OnLease(e)
	}
}

// Finish closes the timeline (if any) at simulated end-of-run time now.
func (r *Recorder) Finish(now uint64) {
	if r.Timeline != nil {
		r.Timeline.Finish(now)
	}
}
