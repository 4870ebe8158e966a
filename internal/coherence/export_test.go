package coherence

import "leaserelease/internal/mem"

// Hooks for the external test package, which is where the tests that run on
// both protocols live (package tardis imports this one).

// QueueSlot returns the first slot of the backing array of line l's request
// queue, whatever the queue's length, and that length.
func QueueSlot(d *Directory, l mem.Line) (slot **Request, n int) {
	q := d.Line(l).queue
	return &q[:1][0], len(q)
}

// Bound reports which directory r's hop callbacks are bound to (nil if one
// of them is missing) and whether r is in service on some line.
func Bound(r *Request) (d *Directory, inService bool) {
	if r.reachDir == nil || r.arrive == nil || r.probe == nil || r.grant == nil {
		return nil, r.line != nil
	}
	return r.dir, r.line != nil
}

// RunNoticeTwice runs one pooled notice's callback — a SharerDrop, or a
// reservation's lapse — and then again, as an event scheduled twice would:
// the second run finds the record released.
func RunNoticeTwice(d *Directory, lapse bool) {
	kind := noticeDrop
	if lapse {
		kind = noticeLapse
	}
	run := d.notice(kind, 0, 1)
	run()
	run()
}
