package ds

import "leaserelease/internal/machine"

// Container is the interface of the contended stacks and queues of Figures 2
// and 3. tid is the calling thread's index: the flat-combining structures
// keep one publication record per thread, and the others ignore it. Take
// reports (0, false) on an empty container.
type Container interface {
	Put(x machine.API, tid int, v uint64)
	Take(x machine.API, tid int) (uint64, bool)
}
