package coherence

import "leaserelease/internal/mem"

// Hooks for the external test package, which is where the tests that run on
// both protocols live (package tardis imports this one).

// Linked reports whether line l's queue, or any of reqs, still holds a link:
// a head, a tail or a next.
func Linked(d *Directory, l mem.Line, reqs []*Request) bool {
	ln := d.Line(l)
	linked := ln.head != nil || ln.tail != nil
	for _, r := range reqs {
		linked = linked || r.next != nil
	}
	return linked
}

// Bound reports which directory r's hop callbacks are bound to (nil if one
// of them is missing) and whether r is in service on some line.
func Bound(r *Request) (d *Directory, inService bool) {
	if r.reachDir == nil || r.arrive == nil || r.probe == nil || r.grant == nil {
		return nil, r.line != nil
	}
	return r.dir, r.line != nil
}

// NoticeKinds names the pooled notices RunNoticeTwice can run.
var NoticeKinds = map[string]noticeKind{"drop": noticeDrop, "lapse": noticeLapse,
	"commit": noticeCommit, "service": noticeService}

// RunNoticeTwice runs one pooled notice's callback — a SharerDrop, a
// reservation's lapse, or a commit or stalled service of line 1, which it
// creates — and then again, as an event scheduled twice would: the second run
// finds the record released.
func RunNoticeTwice(d *Directory, kind string) {
	run := d.notice(NoticeKinds[kind], 0, 1, d.line(1))
	run()
	run()
}
