// Package telemetry is the simulator's observability layer: a structured
// event bus the machine/coherence/cache layers emit into, cycle-domain
// log-bucketed histograms, a hot-line profiler, and timeline/JSON
// exporters.
//
// The layer is zero-overhead when disabled: every emit site is guarded by
// Bus.Wants, which is a nil-check plus one bitmask test, and no Event is
// even constructed unless at least one subscriber registered for the
// category. Because all event payloads are keyed to the deterministic
// simulated clock, all derived telemetry (histograms, hot-line rankings,
// timelines) is byte-for-byte reproducible for a given seed.
package telemetry

import (
	"fmt"

	"leaserelease/internal/mem"
)

// Category partitions events into independently subscribable streams.
type Category uint8

const (
	// CatLease carries lease-lifecycle events (Event.Kind is one of the
	// Lease*/Probe* kinds below).
	CatLease Category = iota
	// CatCoherence carries per-line coherence-message events (Event.Kind
	// is one of the Msg* kinds; Event.Val is the message count).
	CatCoherence
	// CatCache carries L1 eviction events (Event.Kind is the victim's MSI
	// state as a uint8; Event.Line is the victim line).
	CatCache
	// CatDirQueue carries directory queue-pressure events: one event per
	// request arrival, with Event.Val the line's queue occupancy
	// (including the request in service).
	CatDirQueue
	// CatTxn carries coherence-transaction span events (Event.Kind is one
	// of the Txn* kinds below; Event.Val is the transaction ID minted at
	// the requesting core, always TxnID(core, seq), and Event.Aux a
	// kind-specific payload). A core has at most one open transaction
	// (Proposition 1): it mints its next ID only after its last one's
	// TxnComplete. The span assembler (Spans) reconstructs per-transaction
	// phase breakdowns from this stream.
	CatTxn
	// NumCategories is the number of event categories.
	NumCategories
)

func (c Category) String() string {
	switch c {
	case CatLease:
		return "lease"
	case CatCoherence:
		return "coherence"
	case CatCache:
		return "cache"
	case CatDirQueue:
		return "dirqueue"
	case CatTxn:
		return "txn"
	}
	return "category?"
}

// Lease-lifecycle kinds (CatLease). ProbeServed carries the deferral delay,
// not a lease transition.
const (
	LeaseCreated  uint8 = iota // lease table entry created
	LeaseStarted               // ownership granted, countdown running; Val = granted duration
	LeaseReleased              // voluntary release; Val = hold cycles
	LeaseExpired               // MAX_LEASE_TIME timer fired; Val = hold cycles
	LeaseEvicted               // FIFO-evicted by a newer lease; Val = hold cycles or NoVal
	LeaseForced                // force-released to unpin a full L1 set; Val likewise
	LeaseBroken                // broken by a regular request (§5); Val likewise
	ProbeDeferred              // an incoming probe was queued behind the lease
	LeaseIgnored               // skipped by the §5 speculative predictor
	ProbeServed                // a deferred probe was delivered; Val = deferral delay
)

// LeaseKindName names a CatLease kind; for the five kinds that end a lease
// it is the timeline's release reason.
func LeaseKindName(kind uint8) string {
	switch kind {
	case LeaseCreated:
		return "lease"
	case LeaseStarted:
		return "start"
	case LeaseReleased:
		return "release"
	case LeaseExpired:
		return "expire"
	case LeaseEvicted:
		return "evict"
	case LeaseForced:
		return "force"
	case LeaseBroken:
		return "break"
	case ProbeDeferred:
		return "defer"
	case LeaseIgnored:
		return "ignore"
	case ProbeServed:
		return "serve"
	}
	return fmt.Sprintf("LeaseKind(%d)", kind)
}

// Coherence message kinds (CatCoherence). coherence.MsgKind aliases these,
// keeping the numbering in one place.
const (
	MsgRequest uint8 = iota
	MsgReply
	MsgForward
	MsgInval
	MsgAck
	MsgWriteback
)

// NumMsgKinds is the number of coherence message kinds.
const NumMsgKinds = 6

// Coherence-transaction span kinds (CatTxn). Every CatTxn event carries the
// transaction ID in Event.Val; Event.Aux is kind-specific. A transaction's
// life is Begin -> Arrive -> Service -> { fill | inval fan-out |
// forward/probe [-> defer] } -> Complete; the span assembler turns the
// timestamps into a per-phase cycle breakdown.
const (
	// TxnBegin: the requesting core submitted the request. Aux is a
	// TxnFlag* bitmask describing the request.
	TxnBegin uint8 = iota
	// TxnArrive: the request entered the line's directory FIFO queue.
	// Aux is the queue occupancy at arrival (including in-service).
	TxnArrive
	// TxnService: the request became head-of-queue and entered service.
	// Aux is the directory's L2 tag/data service latency in cycles (0 on
	// the forward path, where service time is measured to probe arrival).
	TxnService
	// TxnInval: sharer invalidations fanned out. Aux is the extra wait in
	// cycles beyond the L2 access before the grant can be sent.
	TxnInval
	// TxnProbe: the forwarded probe reached the owning core (Event.Core).
	TxnProbe
	// TxnDefer: the probe was queued behind the owner's active lease.
	TxnDefer
	// TxnProbeDone: the owner downgraded its copy (immediately, or after
	// the deferring lease released).
	TxnProbeDone
	// TxnComplete: the grant was committed and the requester resumed.
	TxnComplete
	// TxnRenew: a timestamp protocol served the request as a tag-only
	// renewal — the line was unwritten since the requester's last copy, so
	// only its read reservation (rts) was extended, with no data transfer.
	// Aux is the renewal service latency in cycles; the span assembler
	// books it into the PhaseInval bucket, which under Tardis holds
	// renew/extension cycles instead of invalidation fan-out.
	TxnRenew
)

// txnCoreShift places the requesting core above a transaction's sequence
// number.
const txnCoreShift = 48

// TxnID is the ID of core's seq-th transaction, carried in every CatTxn
// event's Val: core<<48 | seq.
func TxnID(core int, seq uint64) uint64 { return uint64(core)<<txnCoreShift | seq }

// txnCore is the core that minted transaction id.
func txnCore(id uint64) uint64 { return id >> txnCoreShift }

// TxnFlag* describe a transaction in TxnBegin's Aux payload.
const (
	TxnFlagExcl  uint64 = 1 << iota // GetX (exclusive) request
	TxnFlagLease                    // initiated by a Lease instruction
)

// NoVal marks an Event.Val that carries no measurement (e.g. the hold time
// of a lease that never started its countdown).
const NoVal = ^uint64(0)

// Event is one telemetry event. Kind and Val are category-specific; see the
// Category constants.
type Event struct {
	Time uint64   // simulated cycle of the event
	Core int      // emitting core, or -1 for directory-side events
	Cat  Category // event category
	Kind uint8    // category-specific subtype
	Line mem.Line // cache line the event concerns (0 if none)
	Val  uint64   // category-specific payload (duration, occupancy, count)
	Aux  uint64   // secondary payload (CatTxn kind payloads; else 0)
}

// Bus is a multi-subscriber event bus over the simulated machine. A nil
// *Bus is valid and inert: Wants reports false and Emit is a no-op, so
// emitters need no nil checks beyond calling the methods.
//
// There is one emit path: Emit/Emit2 call the category's subscribers on
// the simulation goroutine, in subscription order, before returning. A
// subscriber therefore sees events in the order they executed and may read
// the machine as the event left it; it must not mutate simulated state.
type Bus struct {
	now  func() uint64
	mask uint32
	subs [NumCategories][]func(Event)
}

// NewBus creates a bus whose events are timestamped by now (typically the
// simulation engine's clock).
func NewBus(now func() uint64) *Bus {
	return &Bus{now: now}
}

// Subscribe registers fn for one category and enables emission for it.
func (b *Bus) Subscribe(cat Category, fn func(Event)) {
	if cat >= NumCategories {
		panic("telemetry: bad category")
	}
	b.subs[cat] = append(b.subs[cat], fn)
	b.mask |= 1 << cat
}

// SubscribeAll registers fn for every category.
func (b *Bus) SubscribeAll(fn func(Event)) {
	for c := Category(0); c < NumCategories; c++ {
		b.Subscribe(c, fn)
	}
}

// Wants reports whether anyone is listening to cat. It is the hot-path
// guard: emitters call it before assembling an event's payload.
func (b *Bus) Wants(cat Category) bool {
	return b != nil && b.mask&(1<<cat) != 0
}

// Emit timestamps and delivers an event to cat's subscribers. No-op when
// nobody subscribed (or b is nil).
func (b *Bus) Emit(cat Category, core int, kind uint8, line mem.Line, val uint64) {
	b.Emit2(cat, core, kind, line, val, 0)
}

// Emit2 is Emit with the secondary Aux payload (CatTxn events use it for
// kind-specific measurements alongside the transaction ID in val).
func (b *Bus) Emit2(cat Category, core int, kind uint8, line mem.Line, val, aux uint64) {
	if !b.Wants(cat) {
		return
	}
	e := Event{Time: b.now(), Core: core, Cat: cat, Kind: kind, Line: line, Val: val, Aux: aux}
	for _, fn := range b.subs[cat] {
		fn(e)
	}
}
