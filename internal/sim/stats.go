package sim

// EngineStats is a snapshot of the engine's host-side counters
// (Engine.Stats): how many events a run executed and how its proc wake-ups
// were paid for. The engine keeps them on every run; each is a plain count
// of which event popped where, never wall-clock derived, so for a given
// seed and sequence of Run calls they are as deterministic as the simulation
// itself (a stop time can turn a Sync's fast-forward into a wake). An
// observer costs no event, so they are the same with and without one.
type EngineStats struct {
	// Lookahead is the declared minimum cross-domain latency in cycles
	// (DeclareLookahead). 0 means none was declared: the run does not hold
	// the lookahead certificate and no proc ran ahead.
	Lookahead uint64 `json:"lookahead"`
	// EventsTotal is the number of events executed (Stats computes it, as
	// BucketEvents + HeapEvents). A proc Sync that
	// fast-forwards time (nothing else was due first) consumes no event and
	// is not counted, nor is one that RunAhead made unnecessary.
	EventsTotal uint64 `json:"events_total"`
	// ProcSwitches is the number of times the driver loop resumed a proc's
	// coroutine (each is one switch in and, later, one out). OwnWakes is
	// the number of wakes a parked proc popped for itself on its own stack
	// — no switch. SyncFastForwards is the number of Syncs that advanced
	// the clock with nothing due first — no event either. Together they
	// say how a run's proc wake-ups were paid for on the host.
	ProcSwitches     uint64 `json:"proc_switches"`
	OwnWakes         uint64 `json:"own_wakes"`
	SyncFastForwards uint64 `json:"sync_fast_forwards"`
	// SyncWakes is the number of Syncs that scheduled a wake — one event
	// each. SyncsSkipped is the number of Syncs a proc did without because
	// RunAhead let it act at its local clock (an L1 hit with nothing in
	// flight to the core). SyncIssues is the number of Syncs whose wake
	// BlockAfter replaced with the callback the proc would have run after
	// it (a miss issued at the core's local clock) — one event each, no
	// switch. A Sync that has to move the clock is exactly one of wake,
	// fast-forward, skipped or issue.
	SyncWakes    uint64 `json:"sync_wakes"`
	SyncsSkipped uint64 `json:"syncs_skipped"`
	SyncIssues   uint64 `json:"sync_issues"`
	// SpinParks and SpinLoadsElided are kept by the machine, not the
	// engine (machine.Machine.EngineStats fills them in): the number of
	// times a spinning core blocked instead of re-reading a word that only
	// a message to it could change, and the loads those blocks performed
	// in bulk, with no event and no switch each (machine.Ctx.Spin).
	SpinParks       uint64 `json:"spin_parks"`
	SpinLoadsElided uint64 `json:"spin_loads_elided"`
	// The Refused counters say why an action RunAhead was asked about, at
	// a local clock T ahead of the engine's, had to Sync instead, each call
	// counted under the first reason that held: T at or beyond one
	// lookahead from now, a callback from another domain queued for the
	// proc's at or before T, T at or beyond the Run's stop time, one of the
	// domain's own timers (a lease expiry) at or before T, state that
	// another domain reaches without a callback (a Tardis Shared line, or a
	// store to a line another core holds a live reservation on), or nothing
	// due before T, so that the Sync fast-forwards for free. With
	// SyncsSkipped they count every such call.
	RefusedLookahead   uint64 `json:"refused_lookahead"`
	RefusedForeign     uint64 `json:"refused_foreign"`
	RefusedStop        uint64 `json:"refused_stop"`
	RefusedExpiry      uint64 `json:"refused_expiry"`
	RefusedShared      uint64 `json:"refused_shared"`
	RefusedFastForward uint64 `json:"refused_fast_forward"`
	// BucketEvents and HeapEvents say where each executed event was popped
	// from — a near-tier bucket or the heap behind them (eventQueue) — and
	// sum to EventsTotal. BucketOverflows is
	// the number of events inside the near tier's span (256 cycles ahead)
	// that found their bucket full and went to the heap instead. Together they say whether
	// the near tier is sized for the run's traffic: the heap should see the
	// far timers and little else.
	BucketEvents    uint64 `json:"bucket_events"`
	HeapEvents      uint64 `json:"heap_events"`
	BucketOverflows uint64 `json:"bucket_overflows"`
	// MaxPending is the largest number of events queued at once.
	MaxPending uint64 `json:"max_pending"`
}

// Stats returns the engine's host-side counters.
func (e *Engine) Stats() EngineStats {
	st := e.stats
	st.Lookahead = e.lookahead
	st.EventsTotal = st.BucketEvents + st.HeapEvents
	return st
}
