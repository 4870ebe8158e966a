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
	"iter"

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
	// CatTxn carries one TxnComplete per coherence transaction, at the
	// grant's delivery to the requester (Event.Core): Event.Val is its ID,
	// TxnID(core, seq), and Event.Stamps its timeline. The span assembler
	// (Spans) folds it into a per-phase breakdown.
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

// Coherence-transaction kinds (CatTxn). A transaction is one event,
// TxnComplete, whose TxnStamps hold the cycle of each step before it. The
// step kinds remain only as names benchmarks/leaseperf's recorder probe
// emits; the span assembler ignores them.
const (
	TxnBegin    uint8 = iota // the requesting core submitted the request
	TxnArrive                // the request entered the line's directory FIFO queue
	TxnService               // the request became head-of-queue and entered service
	TxnComplete              // the grant reached the requester: the one emitted kind
)

// txnCoreShift places the requesting core above a transaction's sequence
// number.
const txnCoreShift = 48

// TxnID is the ID of core's seq-th transaction, carried in every CatTxn
// event's Val: core<<48 | seq.
func TxnID(core int, seq uint64) uint64 { return uint64(core)<<txnCoreShift | seq }

// TxnFlag* describe a transaction's request: GetX, and from a Lease
// instruction. Only benchmarks/leaseperf's recorder probe still passes them.
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

	// Stamps is a CatTxn event's timeline, nil on every other event; it lives
	// in the pooled request and is valid only during delivery.
	Stamps *TxnStamps
}

// Traffic is one line's coherence traffic, which the directory counts on its
// record of the line where CatCoherence, CatDirQueue and CatCache are emitted.
type Traffic struct {
	Msgs      uint64 // coherence messages for the line
	Invals    uint64 // owner probes + sharer invalidations
	Evictions uint64 // L1 replacement victims
	MaxQueue  uint64 // peak directory queue occupancy
}

// TrafficSource counts each line's Traffic (the machine's directory).
type TrafficSource interface {
	// LineTraffic returns l's traffic, zero if none was counted.
	LineTraffic(l mem.Line) Traffic
	// AllTraffic visits every line with nonzero traffic.
	AllTraffic() iter.Seq2[mem.Line, Traffic]
}

// Bus is a multi-subscriber event bus over the simulated machine. A nil
// *Bus is valid and inert: Wants reports false and Emit is a no-op, so
// emitters need no nil checks beyond calling the methods.
//
// There is one emit path: Emit/EmitTxn call the category's subscribers on
// the simulation goroutine, in subscription order, before returning. A
// subscriber therefore sees events in the order they executed and may read
// the machine as the event left it; it must not mutate simulated state.
type Bus struct {
	now  func() uint64
	mask uint32
	subs [NumCategories][]func(Event)

	// Traffic, when set, counts each line's Traffic: the machine registers
	// its directory when it makes the bus, and the Recorder reads it.
	Traffic TrafficSource
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
	if b.Wants(cat) {
		b.deliver(Event{Time: b.now(), Core: core, Cat: cat, Kind: kind, Line: line, Val: val})
	}
}

// Emit2 is Emit with a secondary payload that no event carries since a
// transaction became one event: aux is dropped. benchmarks/leaseperf's
// recorder probe still passes one.
func (b *Bus) Emit2(cat Category, core int, kind uint8, line mem.Line, val, aux uint64) {
	b.Emit(cat, core, kind, line, val)
}

// EmitTxn delivers the one CatTxn event of transaction id, which core
// requested on line and which completes now, with its stamps.
func (b *Bus) EmitTxn(core int, line mem.Line, id uint64, st *TxnStamps) {
	if b.Wants(CatTxn) {
		b.deliver(Event{Time: b.now(), Core: core, Cat: CatTxn, Kind: TxnComplete, Line: line, Val: id, Stamps: st})
	}
}

func (b *Bus) deliver(e Event) {
	for _, fn := range b.subs[e.Cat] {
		fn(e)
	}
}
