package machine

import (
	"reflect"
	"strings"
	"testing"

	"leaserelease/internal/coherence"
)

// fillStats sets every uint64 counter (and each Msgs element) to a distinct
// value derived from base, via reflection so new fields can't be missed.
func fillStats(t *testing.T, base uint64) Stats {
	t.Helper()
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	next := base
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(next)
			next += base
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				f.Index(j).SetUint(next)
				next += base
			}
		case reflect.Int: // MaxDirQueue
			f.SetInt(int64(next))
			next += base
		default:
			t.Fatalf("unhandled Stats field kind %v (%s): extend fillStats and Sub",
				f.Kind(), v.Type().Field(i).Name)
		}
	}
	return s
}

// Sub must subtract every counter field-by-field; (prev + delta) - prev
// round-trips to delta for all of them. MaxDirQueue is documented as a
// high-water mark, not a counter: Sub carries over the newer snapshot's
// value unchanged.
func TestStatsSubRoundTrip(t *testing.T) {
	prev := fillStats(t, 3)
	delta := fillStats(t, 1000)

	cur := prev // cur = prev + delta, field by field
	cv := reflect.ValueOf(&cur).Elem()
	dv := reflect.ValueOf(delta)
	for i := 0; i < cv.NumField(); i++ {
		switch f := cv.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(f.Uint() + dv.Field(i).Uint())
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				f.Index(j).SetUint(f.Index(j).Uint() + dv.Field(i).Index(j).Uint())
			}
		case reflect.Int:
			f.SetInt(f.Int() + dv.Field(i).Int())
		}
	}

	got := cur.Sub(prev)
	want := delta
	want.MaxDirQueue = cur.MaxDirQueue // carried over, not subtracted
	if got != want {
		t.Fatalf("Sub round-trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestStatsTotalMsgs(t *testing.T) {
	var s Stats
	var want uint64
	for i := range s.Msgs {
		s.Msgs[i] = uint64(i + 1)
		want += uint64(i + 1)
	}
	if got := s.TotalMsgs(); got != want {
		t.Fatalf("TotalMsgs = %d, want %d", got, want)
	}
}

// Coherence message kinds alias the telemetry numbering; the Stats.Msgs
// array must still be indexed by every kind.
func TestMsgKindsCoverStatsArray(t *testing.T) {
	var s Stats
	for _, k := range []coherence.MsgKind{
		coherence.MsgRequest, coherence.MsgReply, coherence.MsgForward,
		coherence.MsgInval, coherence.MsgAck, coherence.MsgWriteback,
	} {
		if int(k) < 0 || int(k) >= len(s.Msgs) {
			t.Fatalf("MsgKind %v = %d outside Msgs[%d]", k, int(k), len(s.Msgs))
		}
		if strings.HasPrefix(k.String(), "MsgKind(") {
			t.Fatalf("MsgKind %d has no String case", int(k))
		}
	}
}
