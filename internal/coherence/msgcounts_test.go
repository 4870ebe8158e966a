package coherence_test

import (
	"encoding/json"
	"testing"

	"leaserelease/internal/coherence"
)

// MsgCounts marshals to the object a run report's "msgs" has always been —
// every kind by name, names in order — and reads it back unchanged.
func TestMsgCountsJSONRoundTrip(t *testing.T) {
	var c coherence.MsgCounts
	c[coherence.MsgRequest], c[coherence.MsgReply], c[coherence.MsgForward] = 1, 2, 3
	c[coherence.MsgInval], c[coherence.MsgAck], c[coherence.MsgWriteback] = 4, 5, 0
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"ack":5,"forward":3,"inval":4,"reply":2,"request":1,"writeback":0}`
	if string(b) != want {
		t.Errorf("marshaled %s, want %s", b, want)
	}
	back := coherence.MsgCounts{9, 9, 9, 9, 9, 9}
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != c {
		t.Errorf("round trip gave %v, want %v", back, c)
	}
	if err := json.Unmarshal([]byte(`[1,2]`), &back); err == nil {
		t.Error("an array unmarshaled as MsgCounts")
	}
}
