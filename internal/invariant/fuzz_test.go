package invariant_test

import (
	"testing"

	"leaserelease/internal/coherence"
	"leaserelease/internal/faults"
	"leaserelease/internal/invariant"
	"leaserelease/internal/machine"
	"leaserelease/internal/mem"
)

// FuzzMachineOps drives full machines (cores, L1s, directory, lease
// tables) with byte-derived instruction streams — leases, releases,
// MultiLease groups, plain and RMW accesses — under fault injection, with
// the invariant checker attached. The first byte seeds the run and its low
// bit picks the coherence protocol, MSI or Tardis. Any violation or escaped
// panic fails.
func FuzzMachineOps(f *testing.F) {
	f.Add([]byte{0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77})
	f.Add([]byte{0x03, 0x03, 0x03, 0x03, 0x13, 0x13, 0x13, 0x13})
	f.Add([]byte{0xf0, 0xe1, 0xd2, 0xc3, 0xb4, 0xa5, 0x96, 0x87, 0x78, 0x69,
		0x5a, 0x4b, 0x3c, 0x2d, 0x1e, 0x0f})
	f.Add([]byte{0x04, 0x40, 0x04, 0x40, 0x04, 0x40})
	f.Add([]byte{0x01, 0x08, 0x10, 0x0b, 0x1b, 0x2c, 0x39, 0x42, 0x51, 0x60, 0x7a, 0x83})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512] // bound sim length per exec
		}
		cfg := machine.DefaultConfig(3)
		cfg.Faults = faults.DefaultConfig()
		if len(data) > 0 {
			cfg.Seed = uint64(data[0]) + 1
			cfg.Protocol = coherence.Protocols()[data[0]%2]
		}
		m := machine.New(cfg)
		chk := invariant.Attach(m)
		d := m.Direct()
		shared := make([]mem.Addr, 8)
		for i := range shared {
			shared[i] = d.Alloc(8)
		}

		// Each thread consumes an interleaved slice of the input.
		for tid := 0; tid < 3; tid++ {
			tid := tid
			m.Spawn(0, func(c *machine.Ctx) {
				for i := tid; i < len(data); i += 3 {
					b := data[i]
					a := shared[int(b>>3)%len(shared)]
					switch b % 8 {
					case 0, 1:
						c.Lease(a, 200+uint64(b)*8)
						c.Store(a, c.Load(a)+1)
						c.Release(a)
					case 2:
						c.Lease(a, 150)
						c.FetchAdd(a, 1)
						// No release: left to expire or be FIFO-evicted.
					case 3:
						b2 := shared[int(b>>5)%len(shared)]
						if c.MultiLease(400, a, b2) {
							c.Store(a, 1)
							c.Store(b2, 2)
							c.ReleaseAll()
						}
					case 4:
						c.SoftMultiLease(300, a, shared[(int(b>>3)+1)%len(shared)])
						c.FetchAdd(a, 1)
						c.ReleaseAll()
					case 5:
						c.CAS(a, 0, uint64(b))
					case 6:
						c.Load(a)
					case 7:
						c.Work(uint64(b))
					}
				}
				c.ReleaseAll()
			})
		}
		if err := m.Drain(); err != nil {
			t.Fatalf("drain: %v\n%s", err, m.DumpState())
		}
		chk.CheckNow()
		if err := chk.Err(); err != nil {
			t.Fatalf("invariant violations:\n%v", err)
		}
	})
}
