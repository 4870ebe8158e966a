package ds

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"leaserelease/internal/coherence"
	"leaserelease/internal/linearize"
	"leaserelease/internal/machine"
)

// One harness for the low-contention suite. Sets() is split in two groups:
// the TestSets* tests run the first four sets, the TestLockFreeSets* tests
// the lock-free lf* sets. Each test runs a set base and leased (the leased
// subtest carries Go's "#01" suffix), under the subtest name in setTests.

// setTests maps each -ds value of Sets() to its subtest name and group.
var setTests = map[string]struct {
	name     string
	lockFree bool
}{
	"harris":   {"harris", false},
	"skiplist": {"lazyskip", false},
	"bst":      {"bst", false},
	"hash":     {"hash", false},
	"lfskip":   {"lfskip", true},
	"lfbst":    {"nmtree", true},
	"lfhash":   {"michaelhash", true},
}

// forEachSet runs f once per set of the lockFree group and lease time.
func forEachSet(t *testing.T, lockFree bool, f func(t *testing.T, newSet func(x machine.API) Set)) {
	for _, decl := range Sets() {
		st, ok := setTests[decl.Name]
		if !ok {
			t.Fatalf("set %q has no entry in setTests", decl.Name)
		}
		if st.lockFree != lockFree {
			continue
		}
		for _, lease := range []uint64{0, 20000} {
			t.Run(st.name, func(t *testing.T) {
				f(t, func(x machine.API) Set { return decl.New(x, lease, 16) })
			})
		}
	}
}

// checkSet runs the set's structural oracle, if it has one.
func checkSet(t *testing.T, s Set, x machine.API) {
	t.Helper()
	if c, ok := s.(interface{ CheckInvariants(machine.API) error }); ok {
		if err := c.CheckInvariants(x); err != nil {
			t.Fatal(err)
		}
	}
}

// modelStep applies one random operation on key k to s and to model. It
// names the operation if s disagreed with model, "" otherwise.
func modelStep(c *machine.Ctx, s Set, model map[uint64]bool, k uint64) string {
	switch c.Rand().Intn(3) {
	case 0:
		if s.Insert(c, k) == model[k] {
			return "insert"
		}
		model[k] = true
	case 1:
		if s.Remove(c, k) != model[k] {
			return "remove"
		}
		delete(model, k)
	default:
		if s.Contains(c, k) != model[k] {
			return "contains"
		}
	}
	return ""
}

// TestSetsSequentialModel drives each set against a map model on one core.
func TestSetsSequentialModel(t *testing.T) { forEachSet(t, false, sequentialModel) }

func TestLockFreeSetsSequentialModel(t *testing.T) { forEachSet(t, true, sequentialModel) }

func sequentialModel(t *testing.T, newSet func(machine.API) Set) {
	m := newM(1)
	s := newSet(m.Direct())
	m.Spawn(0, func(c *machine.Ctx) {
		model := map[uint64]bool{}
		for i := 0; i < 500; i++ {
			k := uint64(c.Rand().Intn(48) + 1)
			if op := modelStep(c, s, model, k); op != "" {
				t.Errorf("op %d: %s(%d) disagrees with the model", i, op, k)
				return
			}
		}
	})
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	checkSet(t, s, m.Direct())
}

// TestSetsConcurrentDisjointKeys gives each thread a disjoint key range so
// per-thread op results are exactly checkable while the structure itself is
// shared and contended.
func TestSetsConcurrentDisjointKeys(t *testing.T) { forEachSet(t, false, concurrentDisjointKeys) }

func TestLockFreeSetsConcurrentDisjointKeys(t *testing.T) {
	forEachSet(t, true, concurrentDisjointKeys)
}

func concurrentDisjointKeys(t *testing.T, newSet func(machine.API) Set) {
	const cores, opsPer, keysPer = 8, 150, 16
	m := newM(cores)
	s := newSet(m.Direct())
	models := make([]map[uint64]bool, cores)
	for i := range models {
		models[i] = map[uint64]bool{}
		m.Spawn(0, func(c *machine.Ctx) {
			base := uint64(i*keysPer + 1)
			for n := 0; n < opsPer; n++ {
				k := base + uint64(c.Rand().Intn(keysPer))
				if op := modelStep(c, s, models[i], k); op != "" {
					t.Errorf("core %d: %s(%d) wrong", i, op, k)
					return
				}
			}
		})
	}
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	d := m.Direct()
	checkSet(t, s, d)
	// Final membership must match the union of the models.
	for i, model := range models {
		base := uint64(i*keysPer + 1)
		for k := base; k < base+keysPer; k++ {
			if got := s.Contains(d, k); got != model[k] {
				t.Fatalf("final membership of %d = %v, model %v", k, got, model[k])
			}
		}
	}
}

// TestSetsSharedHotKeys hammers a tiny shared key range from all threads
// (maximum structural contention: concurrent inserts and removes of the
// same keys), then checks structural invariants plus a final sequential
// sanity pass.
func TestSetsSharedHotKeys(t *testing.T) { forEachSet(t, false, sharedHotKeys) }

func TestLockFreeSetsSharedHotKeys(t *testing.T) { forEachSet(t, true, sharedHotKeys) }

func sharedHotKeys(t *testing.T, newSet func(machine.API) Set) {
	const cores, opsPer, keys = 8, 150, 6
	m := newM(cores)
	s := newSet(m.Direct())
	for i := 0; i < cores; i++ {
		m.Spawn(0, func(c *machine.Ctx) {
			for n := 0; n < opsPer; n++ {
				k := uint64(c.Rand().Intn(keys) + 1)
				switch c.Rand().Intn(3) {
				case 0:
					s.Insert(c, k)
				case 1:
					s.Remove(c, k)
				default:
					s.Contains(c, k)
				}
			}
		})
	}
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	d := m.Direct()
	checkSet(t, s, d)
	// Quiescent sequential sanity: the structure still behaves as a set.
	for k := uint64(1); k <= keys; k++ {
		was := s.Contains(d, k)
		if s.Insert(d, k) == was {
			t.Fatalf("post-stress insert(%d) inconsistent", k)
		}
		if !s.Contains(d, k) {
			t.Fatalf("post-stress key %d missing after insert", k)
		}
		if !s.Remove(d, k) || s.Contains(d, k) {
			t.Fatalf("post-stress remove(%d) inconsistent", k)
		}
	}
}

// TestSetsLinearizable records real timestamped histories of every set —
// four threads, five ops each on three keys, so most ops conflict — and
// checks them against linearize.SetModel on each coherence protocol, clean
// and with cores preempted at 10% of accesses for 50..3000 cycles, base and
// leased. A preempted lease holder's lease expires involuntarily, so a CAS
// window "protected" by an already-expired lease would show up here as a
// non-linearizable result. The bump allocators never recycle a node, so
// ABA and reclamation bugs cannot happen; the spec catches lost updates
// and ordering bugs.
func TestSetsLinearizable(t *testing.T) {
	for _, decl := range Sets() {
		for _, proto := range coherence.Protocols() {
			for _, prof := range faultProfiles {
				for _, lease := range []uint64{0, 20000} {
					fc := prof.fc
					name := fmt.Sprintf("%s/%s/%s/lease%d", decl.Name, proto, prof.name, lease)
					t.Run(name, func(t *testing.T) {
						cfg := machine.DefaultConfig(4)
						cfg.Protocol, cfg.Faults = proto, fc
						m := machine.New(cfg)
						s := decl.New(m.Direct(), lease, 16)
						rec := &linearize.Recorder{}
						for i := 0; i < 4; i++ {
							m.Spawn(0, func(c *machine.Ctx) {
								for n := 0; n < 5; n++ {
									k := uint64(c.Rand().Intn(3) + 1)
									inv := c.Now()
									kind, op := "has", s.Contains
									switch c.Rand().Intn(3) {
									case 0:
										kind, op = "ins", s.Insert
									case 1:
										kind, op = "del", s.Remove
									}
									ok := op(c, k)
									rec.Record(i, inv, c.Now(), kind, k, 0, ok)
								}
							})
						}
						if err := m.Drain(); err != nil {
							t.Fatal(err)
						}
						if fc.PreemptMax > 0 && m.Stats().Preemptions == 0 {
							t.Fatal("the preempted history saw no preemption")
						}
						if !linearize.Check(rec.Ops, linearize.SetModel()) {
							t.Fatalf("history not linearizable:\n%v", rec.Ops)
						}
					})
				}
			}
		}
	}
}

// TestSeqSkipListVsSortedSlice property-checks the sequential skiplist
// against a sorted-slice model including DeleteMin order.
func TestSeqSkipListVsSortedSlice(t *testing.T) {
	f := func(keys []uint16) bool {
		if len(keys) > 64 {
			keys = keys[:64]
		}
		m := newM(1)
		d := m.Direct()
		s := NewSeqSkipList(d)
		var model []uint64
		for _, k := range keys {
			key := uint64(k) + 1
			s.Insert(d, key, 0)
			model = append(model, key)
		}
		sort.Slice(model, func(i, j int) bool { return model[i] < model[j] })
		if s.Len(d) != len(model) {
			return false
		}
		for _, want := range model {
			got, ok := s.DeleteMin(d)
			if !ok || got != want {
				return false
			}
		}
		_, ok := s.DeleteMin(d)
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
