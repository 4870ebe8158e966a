package bench

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"

	"leaserelease/internal/coherence"
)

// Host is the host-flag surface of the binaries that run sweep cells
// (cmd/leasesim, cmd/leasebench): the flags that mean the same thing in
// both, registered once, and what they start.
//
// -protocol selects the coherence backend: the default directory MSI, or
// Tardis timestamp coherence (per-line wts/rts, silent reservation expiry
// instead of invalidations). -threads is a comma-separated list of thread
// counts. Cells — one simulated machine each — run on a host worker pool
// (-parallel, default GOMAXPROCS) and their output is emitted in sweep
// order, so it is byte-identical for any -parallel value; only wall-clock
// changes. -strict stops at the first failure. -cpuprofile/-memprofile
// capture pprof profiles of the host process.
type Host struct {
	// Protocol is the coherence backend for every cell. After Start the
	// default MSI is the empty tag, so default runs are byte-identical to
	// builds that predate -protocol.
	Protocol string
	Threads  []int // -threads, parsed by Start; nil when it is empty
	Strict   bool
	Pool     *Pool // nil (serial) for one worker

	parallel                        int // -parallel as given; Pool.Workers is what it resolved to
	threads, cpuProfile, memProfile string
	name                            string
	stderr                          io.Writer
	cpuFile                         *os.File
}

// AddHostFlags registers the host flags on fs. threads is the default of
// -threads, the one thing the binaries differ in.
func AddHostFlags(fs *flag.FlagSet, threads string) *Host {
	h := &Host{}
	fs.StringVar(&h.Protocol, "protocol", coherence.ProtocolMSI, "coherence protocol backend: "+strings.Join(coherence.Protocols(), "|"))
	fs.StringVar(&h.threads, "threads", threads, "comma-separated thread counts, each 1..64")
	fs.BoolVar(&h.Strict, "strict", false, "stop at the first failure")
	fs.IntVar(&h.parallel, "parallel", 0, "worker pool size for sweep cells (0 = GOMAXPROCS, 1 = serial)")
	fs.StringVar(&h.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&h.memProfile, "memprofile", "", "write an allocation profile to this file at exit")
	return h
}

// Start validates the parsed flag values, then starts the CPU profile and
// the worker pool. name prefixes what it writes to stderr. An error is a
// usage error; after a nil one the caller must Close the host before the
// process exits.
func (h *Host) Start(name string, stderr io.Writer) error {
	h.name, h.stderr = name, stderr
	if !coherence.ValidProtocol(h.Protocol) {
		return fmt.Errorf("unknown -protocol %q (valid: %s)", h.Protocol, strings.Join(coherence.Protocols(), ", "))
	}
	h.Protocol = protocolTag(h.Protocol)
	if h.parallel < 0 {
		return fmt.Errorf("-parallel %d is negative (want 0 for GOMAXPROCS, or a worker count)", h.parallel)
	}
	if h.threads != "" {
		for _, part := range strings.Split(h.threads, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 || n > 64 {
				return fmt.Errorf("bad thread count %q (want 1..64)", part)
			}
			// A cell is named by its thread count (table row, -timeline
			// suffix, FAILED line): two of one count would share a name.
			if slices.Contains(h.Threads, n) {
				return fmt.Errorf("thread count %d given twice in -threads %s", n, h.threads)
			}
			h.Threads = append(h.Threads, n)
		}
	}
	if h.cpuProfile != "" {
		f, err := os.Create(h.cpuProfile)
		if err == nil {
			if err = pprof.StartCPUProfile(f); err != nil {
				f.Close()
			}
		}
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		h.cpuFile = f
	}
	h.Pool = NewPool(h.parallel)
	if w := h.Pool.Workers(); w > runtime.NumCPU() {
		h.logf("warning: %d workers exceeds NumCPU=%d; host threads will timeshare and wall-clock gains flatten",
			w, runtime.NumCPU())
	}
	return nil
}

func (h *Host) logf(format string, args ...any) {
	fmt.Fprintf(h.stderr, h.name+": "+format+"\n", args...)
}

// Close stops the workers once every submitted cell has finished, then ends
// the CPU profile and writes the allocation profile.
func (h *Host) Close() {
	h.Pool.Close()
	if h.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := h.cpuFile.Close(); err != nil {
			h.logf("-cpuprofile: %v", err)
		}
	}
	if h.memProfile == "" {
		return
	}
	f, err := os.Create(h.memProfile)
	if err == nil {
		runtime.GC()
		err = pprof.Lookup("allocs").WriteTo(f, 0)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		h.logf("-memprofile: %v", err)
	}
}
