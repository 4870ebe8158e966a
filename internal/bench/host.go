package bench

import (
	"errors"
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

// Host is the host flag surface of cmd/leasebench: the flags that say at
// what scale and where sweep cells run, the same under -exp and -cell, and
// what they start.
//
// -quick picks QuickParams over FullParams as the scale; -warm (unmeasured
// warm-up cycles) and -window (measured cycles) override the scale's when
// given, whatever their value, so a cell means the same thing under -exp
// and -cell. -threads is a comma-separated list of thread counts that
// replaces the scale's. -protocol selects the coherence backend: the
// default directory MSI, or Tardis timestamp coherence (per-line wts/rts,
// silent reservation expiry instead of invalidations). Cells — one
// simulated machine each — run on a host worker pool (-parallel, default
// GOMAXPROCS) and their output is emitted in sweep order, so it is
// byte-identical for any -parallel value; only wall-clock changes. -strict
// stops at the first failure. -cpuprofile/-memprofile capture pprof
// profiles of the host process.
type Host struct {
	// Params is the sweep the flags select, filled by Start: the scale,
	// the protocol (the default MSI is the empty tag, so default runs are
	// byte-identical to builds that predate -protocol) and the pool (nil,
	// serial, for one worker).
	Params Params
	Strict bool

	fs                                        *flag.FlagSet
	quick                                     bool
	warm, window                              uint64
	parallel                                  int // -parallel as given; Pool.Workers is what it resolved to
	protocol, threads, cpuProfile, memProfile string
	stderr                                    io.Writer
	cpuFile                                   *os.File
}

// AddHostFlags registers the host flags on fs.
func AddHostFlags(fs *flag.FlagSet) *Host {
	h := &Host{fs: fs}
	fs.BoolVar(&h.quick, "quick", false, "small thread sweep and short windows")
	fs.Uint64Var(&h.warm, "warm", 0, "warm-up cycles excluded from the measurement (default: the scale's)")
	fs.Uint64Var(&h.window, "window", 0, "measurement window cycles (default: the scale's)")
	fs.StringVar(&h.protocol, "protocol", coherence.ProtocolMSI, "coherence protocol backend: "+strings.Join(coherence.Protocols(), "|"))
	fs.StringVar(&h.threads, "threads", "", "comma-separated thread counts, each 1..64 (default: the scale's)")
	fs.BoolVar(&h.Strict, "strict", false, "stop at the first failure")
	fs.IntVar(&h.parallel, "parallel", 0, "worker pool size for sweep cells (0 = GOMAXPROCS, 1 = serial)")
	fs.StringVar(&h.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&h.memProfile, "memprofile", "", "write an allocation profile to this file at exit")
	return h
}

// Start validates the parsed flag values and fills Params, then starts the
// CPU profile and the worker pool; what it writes goes to stderr. An error
// is a usage error; after a nil one the caller must Close the host before
// the process exits.
func (h *Host) Start(stderr io.Writer) error {
	h.stderr = stderr
	p := FullParams()
	if h.quick {
		p = QuickParams()
	}
	// A flag that was given wins over the scale, whatever its value.
	h.fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "warm":
			p.Warm = h.warm
		case "window":
			p.Window = h.window
		}
	})
	if p.Window == 0 {
		return errors.New("-window wants at least one cycle")
	}
	if !coherence.ValidProtocol(h.protocol) {
		return fmt.Errorf("unknown -protocol %q (valid: %s)", h.protocol, strings.Join(coherence.Protocols(), ", "))
	}
	p.Protocol = protocolTag(h.protocol)
	if h.parallel < 0 {
		return fmt.Errorf("-parallel %d is negative (want 0 for GOMAXPROCS, or a worker count)", h.parallel)
	}
	if h.threads != "" {
		p.Threads = nil
		for _, part := range strings.Split(h.threads, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 || n > 64 {
				return fmt.Errorf("bad thread count %q (want 1..64)", part)
			}
			// A cell is named by its thread count (table row, -timeline
			// suffix, FAILED line): two of one count would share a name.
			if slices.Contains(p.Threads, n) {
				return fmt.Errorf("thread count %d given twice in -threads %s", n, h.threads)
			}
			p.Threads = append(p.Threads, n)
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
	p.Pool = NewPool(h.parallel)
	if w := p.Pool.Workers(); w > runtime.NumCPU() {
		h.logf("warning: %d workers exceeds NumCPU=%d; host threads will timeshare and wall-clock gains flatten",
			w, runtime.NumCPU())
	}
	h.Params = p
	return nil
}

func (h *Host) logf(format string, args ...any) {
	fmt.Fprintf(h.stderr, "leasebench: "+format+"\n", args...)
}

// Close stops the workers once every submitted cell has finished, then ends
// the CPU profile and writes the allocation profile.
func (h *Host) Close() {
	h.Params.Pool.Close()
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
