package sim

import "sync"

// This file implements the conservative time-windowed parallel executor.
//
// The engine's event key (cycle, target domain, source domain, per-source
// seq) defines one canonical total order that does not depend on how
// domains are packed onto shards. The sequential executor simply pops that
// order. The windowed executor exploits lookahead: if every cross-domain
// message carries at least L cycles of latency, then inside a window
// [T0, T0+L) no shard can affect another — every cross-shard event
// scheduled during the window lands at or beyond its end (enforced by a
// runtime check in shard.push). Shards therefore execute their own slice
// of the canonical order concurrently, and the coordinator merges
// cross-shard events into the target heaps at the barrier, where the key
// restores the canonical order. The observable simulation is bit-identical
// at any shard count.
//
// T0 jumps to the earliest pending event across shards at every barrier,
// so idle stretches cost one barrier instead of one barrier per lookahead
// quantum.

// runWindows executes lookahead-bounded windows until the stop condition.
// The Run caller coordinates barriers and drives shard 0 inline; shards
// 1..n-1 run on worker goroutines spawned for the duration of this Run.
func (e *Engine) runWindows(until Time) error {
	for _, s := range e.shards {
		s.stopAt = until
		s.verdict = nil
	}
	e.windowing = true
	defer func() { e.windowing = false }()
	if e.stats.active == nil {
		e.stats.active = make([]uint64, len(e.shards))
	}
	var wg sync.WaitGroup
	starts := make([]chan struct{}, len(e.shards))
	for i := 1; i < len(e.shards); i++ {
		ch := make(chan struct{})
		starts[i] = ch
		go func(s *shard, ch chan struct{}) {
			for range ch {
				s.loop()
				wg.Done()
			}
		}(e.shards[i], ch)
	}
	defer func() {
		for _, ch := range starts[1:] {
			close(ch)
		}
	}()

	for {
		// Barrier: all workers parked. Merge cross-shard arrivals, then
		// find the earliest pending event anywhere.
		t0 := MaxTime
		for _, s := range e.shards {
			if len(s.inbox) > 0 {
				e.stats.merged += uint64(len(s.inbox))
				for _, ev := range s.inbox {
					e.domain(ev.dom).foreign++ // crossed shards, so crossed domains
					s.events.push(ev)
				}
				s.inbox = s.inbox[:0]
			}
			if len(s.events) > 0 && s.events[0].at < t0 {
				t0 = s.events[0].at
			}
		}
		if t0 >= until {
			return e.windowsDone(until)
		}
		wend := until
		if la := t0 + e.lookahead; la > t0 && la < until {
			wend = la
		}
		nactive, nbusy := 0, 0
		for i, s := range e.shards {
			s.windowEnd = wend
			if len(s.events) > 0 && s.events[0].at < wend {
				e.stats.active[i]++
				nbusy++
				if i > 0 {
					nactive++
				}
			}
		}
		e.stats.windows++
		e.stats.windowCycles += wend - t0
		e.stats.stallCycles += (wend - t0) * uint64(len(e.shards)-nbusy)
		wg.Add(nactive)
		for i, s := range e.shards {
			if i > 0 && len(s.events) > 0 && s.events[0].at < wend {
				starts[i] <- struct{}{}
			}
		}
		e.shards[0].loop()
		wg.Wait()
		e.stats.barriers++
		if e.barrierHook != nil {
			e.barrierHook()
		}

		if err := e.collect(); err != nil {
			return err
		}
	}
}

// collect gathers per-shard failures once every shard's loop has returned
// (a barrier, or the end of a sequential Run). Fatal panics win over stall
// verdicts; ties resolve by shard index so the outcome is deterministic.
func (e *Engine) collect() error {
	e.refreshCounts()
	for _, s := range e.shards {
		if s.fatal != nil {
			pe := s.fatal
			s.fatal = nil
			panic(pe)
		}
	}
	for _, s := range e.shards {
		if s.verdict != nil {
			v := s.verdict
			s.verdict = nil
			return v
		}
	}
	return nil
}

// windowsDone finalises a windowed run that reached its stop condition,
// mirroring the sequential executor's clock semantics: a shard with events
// still pending beyond the stop time parks at the stop time; a drained
// shard keeps the time of its last executed event.
func (e *Engine) windowsDone(until Time) error {
	e.refreshCounts()
	pending := false
	maxNow := Time(0)
	for _, s := range e.shards {
		if len(s.events) > 0 {
			pending = true
			if until > s.now {
				s.now = until
				s.stallEvents = 0
			}
		} else {
			s.settle()
		}
		if s.now > maxNow {
			maxNow = s.now
		}
	}
	e.idleNow = maxNow
	if !pending {
		if blocked := e.Blocked(); len(blocked) > 0 {
			return &DeadlockError{Time: maxNow, Blocked: blocked}
		}
	}
	return nil
}

func (e *Engine) refreshCounts() {
	total := uint64(0)
	for _, s := range e.shards {
		total += s.eventCount
	}
	e.EventCount = total
}
