package sim

// This file is the engine's self-observability layer: counters the
// coordinator accumulates at barriers (where every shard is parked, so no
// synchronization is needed) and plain per-shard counts of how procs were
// scheduled, digested into an EngineStats snapshot. Every field is derived
// from simulated structure — window bounds, event counts, inbox sizes,
// which event popped where — never from wall-clock time, so for a given
// seed and shard count the stats are as deterministic as the simulation
// itself.

// engineCounters is the raw accumulator behind Engine.Stats.
type engineCounters struct {
	windows      uint64
	barriers     uint64
	windowCycles uint64 // sum of (windowEnd - T0) over executed windows
	stallCycles  uint64 // window cycles spent by shards parked with no work
	merged       uint64 // cross-shard inbox events merged at barriers
	active       []uint64
}

// ShardStat is one shard's slice of an EngineStats snapshot.
type ShardStat struct {
	// Events is the number of events the shard executed.
	Events uint64 `json:"events"`
	// ActiveWindows is the number of windows in which the shard had at
	// least one event due before the horizon.
	ActiveWindows uint64 `json:"active_windows"`
	// Utilization is ActiveWindows divided by the total window count.
	Utilization float64 `json:"utilization"`
}

// EngineStats is a snapshot of the engine's self-observability counters
// (Engine.Stats). For a sequential engine all window/barrier counters are
// zero; the proc-scheduling counters are kept by both executors. Every
// field is deterministic per seed and shard count; none is wall-clock
// derived.
type EngineStats struct {
	// Shards is the effective shard count.
	Shards int `json:"shards"`
	// Lookahead is the conservative window width in cycles.
	Lookahead uint64 `json:"lookahead"`
	// Windows is the number of parallel windows executed.
	Windows uint64 `json:"windows"`
	// Barriers is the number of window barriers crossed.
	Barriers uint64 `json:"barriers"`
	// BarrierStallCycles is the total simulated cycles shards spent parked
	// at a barrier with no work due inside the window — the deterministic
	// load-imbalance cost of the conservative schedule.
	BarrierStallCycles uint64 `json:"barrier_stall_cycles"`
	// WindowCycles is the total simulated cycles covered by executed
	// windows (each window contributes windowEnd − T0).
	WindowCycles uint64 `json:"window_cycles"`
	// LookaheadOccupancy is WindowCycles / (Windows × Lookahead): 1.0
	// means every window used the full lookahead horizon; lower values
	// mean stop-time-clipped windows.
	LookaheadOccupancy float64 `json:"lookahead_occupancy"`
	// CrossShardMerged is the number of cross-shard events merged from
	// inboxes into destination heaps at barriers.
	CrossShardMerged uint64 `json:"cross_shard_merged"`
	// EventsTotal is the total events executed across all shards.
	EventsTotal uint64 `json:"events_total"`
	// ProcSwitches is the number of times a driver loop resumed a proc's
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
	// flight to the core). A Sync that has to move the clock is exactly one
	// of fast-forward, wake or skipped.
	SyncWakes    uint64 `json:"sync_wakes"`
	SyncsSkipped uint64 `json:"syncs_skipped"`
	// ImbalanceRatio is max(per-shard events) / mean(per-shard events);
	// 1.0 is a perfectly balanced partition.
	ImbalanceRatio float64 `json:"imbalance_ratio"`
	// PerShard is the per-shard breakdown, indexed by shard id (shard 0
	// is the system side).
	PerShard []ShardStat `json:"per_shard"`
}

// SetBarrierHook registers fn to run on the coordinating goroutine at
// every window barrier of a windowed run, after all shards have parked.
// The hook observes a quiescent engine — no shard executes while it runs,
// and everything the shards wrote during the window happens-before it.
// The telemetry layer uses it to drain per-shard event buffers in
// canonical order. It has no effect on a sequential engine.
func (e *Engine) SetBarrierHook(fn func()) { e.barrierHook = fn }

// Stats digests the executor's self-observability counters. It must be
// called while the engine is idle (between Runs or after the last one).
func (e *Engine) Stats() EngineStats {
	st := EngineStats{
		Shards:             len(e.shards),
		Lookahead:          e.lookahead,
		Windows:            e.stats.windows,
		Barriers:           e.stats.barriers,
		BarrierStallCycles: e.stats.stallCycles,
		WindowCycles:       e.stats.windowCycles,
		CrossShardMerged:   e.stats.merged,
	}
	if st.Windows > 0 && st.Lookahead > 0 {
		st.LookaheadOccupancy = float64(st.WindowCycles) / float64(st.Windows*st.Lookahead)
	}
	var maxEvents uint64
	for i, s := range e.shards {
		ss := ShardStat{Events: s.eventCount}
		if i < len(e.stats.active) {
			ss.ActiveWindows = e.stats.active[i]
		}
		if st.Windows > 0 {
			ss.Utilization = float64(ss.ActiveWindows) / float64(st.Windows)
		}
		st.EventsTotal += ss.Events
		st.ProcSwitches += s.procSwitches
		st.OwnWakes += s.ownWakes
		st.SyncFastForwards += s.syncFastForwards
		st.SyncWakes += s.syncWakes
		st.SyncsSkipped += s.syncsSkipped
		if ss.Events > maxEvents {
			maxEvents = ss.Events
		}
		st.PerShard = append(st.PerShard, ss)
	}
	if st.EventsTotal > 0 && len(e.shards) > 0 {
		mean := float64(st.EventsTotal) / float64(len(e.shards))
		st.ImbalanceRatio = float64(maxEvents) / mean
	}
	return st
}
