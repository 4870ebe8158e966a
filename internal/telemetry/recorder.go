package telemetry

// Recorder is the standard bus consumer: it folds the event stream into
// cycle-domain histograms (lease hold time, probe-deferral delay,
// directory queue occupancy), the per-line hot-line profile, the span
// accounting, the lease ledger and an optional timeline. OpLatency is not
// bus-fed — the bench harness observes it directly around each data
// structure operation.
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

	// Spans folds CatTxn events into per-transaction spans and
	// critical-path cycle accounting.
	Spans *Spans

	// Ledger folds lease-lifecycle events and completed spans into the
	// per-line lease-efficiency ledger.
	Ledger *Ledger

	onComplete func(*Span) // the spans' OnComplete before Attach
}

// NewRecorder returns an empty recorder with its span assembler and ledger.
func NewRecorder() *Recorder { return &Recorder{Spans: NewSpans(), Ledger: NewLedger()} }

// EnableTimeline attaches a timeline exporter (see NewTimeline for the
// cyclesPerUS convention) and returns it. Call before Attach; completed
// spans flow into it as nested transaction slices.
func (r *Recorder) EnableTimeline(cyclesPerUS float64) *Timeline {
	r.Timeline = NewTimeline(cyclesPerUS)
	return r.Timeline
}

// EnableSpans returns the recorder's span assembler, which NewRecorder
// built; it is kept for benchmarks/leaseperf, which calls it.
func (r *Recorder) EnableSpans() *Spans { return r.Spans }

// EnableLedger returns the recorder's ledger, which NewRecorder built; it
// is kept for benchmarks/leaseperf, which calls it.
func (r *Recorder) EnableLedger() *Ledger { return r.Ledger }

// Attach subscribes the recorder to every category it consumes. An
// OnComplete set before Attach still sees every span, after the timeline and
// the ledger. The hot-line traffic stays on the bus's TrafficSource.
func (r *Recorder) Attach(b *Bus) {
	b.Subscribe(CatLease, r.onLease)
	b.Subscribe(CatDirQueue, func(e Event) { r.DirQueue.Observe(e.Val) })
	r.onComplete = r.Spans.OnComplete
	r.Spans.OnComplete = r.onSpan
	b.Subscribe(CatTxn, r.Spans.OnEvent)
}

// onSpan hands one completed span to the timeline and the ledger.
func (r *Recorder) onSpan(s *Span) {
	if r.Timeline != nil {
		r.Timeline.OnTxnSpan(s)
	}
	r.Ledger.OnSpan(s)
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
	r.Ledger.OnLease(e)
}

// Finish closes the timeline (if any) at simulated end-of-run time now.
func (r *Recorder) Finish(now uint64) {
	if r.Timeline != nil {
		r.Timeline.Finish(now)
	}
}
