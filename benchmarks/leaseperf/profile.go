package main

import (
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// profileShares buckets the CPU profiles' flat time by package, using
// `go tool pprof -top` so no dependency is added. If the tool cannot run or
// prints nothing that parses, the shares are nil and the note says why: the
// share.* metrics are then left out, never reported as 0.
func profileShares(profiles []string) (map[string]float64, string) {
	if len(profiles) == 0 {
		return nil, "no CPU profile was taken; share.* are omitted"
	}
	args := append([]string{"tool", "pprof", "-top", "-nodecount=100000", "-nodefraction=0"}, profiles...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Sprintf("go tool pprof unavailable (%v); share.* are omitted", err)
	}
	shares := parseTop(string(out))
	if shares == nil {
		return nil, "go tool pprof -top printed no sample line; share.* are omitted"
	}
	return shares, ""
}

// parseTop sums the flat% column of `pprof -top` output per bucket. A
// function's flat time goes to the first bucket whose rule matches its
// name; what the runtime spends on behalf of a package (map access,
// memmove) lands in "other". It returns nil if no line parses.
func parseTop(out string) map[string]float64 {
	var shares map[string]float64
	for _, line := range strings.Split(out, "\n") {
		// "     0.31s 15.90% 15.90%      0.31s 15.90%  runtime.futex"
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue
		}
		if shares == nil {
			shares = make(map[string]float64)
		}
		shares[profileBucket(strings.Join(f[5:], " "))] += pct / 100
	}
	return shares
}

var programPkgs = []string{"ds", "locks", "stm", "multiqueue", "apps"}

// schedFuncs and gcFuncs are substrings of runtime function names: the
// goroutine handoff (park, ready, futex, channel) and the allocator plus
// collector.
var (
	gcFuncs = []string{"malloc", "gc", "scan", "sweep", "mark", "mspan", "mcache", "mcentral", "mheap",
		"heapBits", "memclr", "newobject", "growslice", "makeslice", "wbBuf", "greyobject", "findObject",
		"spanOf", "nextFree", "bulkBarrier", "typePointers"}
	schedFuncs = []string{"futex", "park", "ready", "chan", "schedule", "findRunnable", "runq", "wakep",
		"startm", "stopm", "note", "mcall", "gogo", "execute", "casgstatus", "lock2", "unlock2", "osyield",
		"procyield", "usleep", "stealWork", "checkTimers", "resetspinning", "pidle", "gosched", "goexit",
		"injectglist", "netpoll", "handoffp", "acquirep", "releasep", "sudog", "waitq", "runtime.send",
		"runtime.recv", "selectgo", "globrunq", "nanotime", "runtime.mPark", "runSafePointFn"}
)

func profileBucket(fn string) string {
	const internal = "leaserelease/internal/"
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "leaserelease.") {
		return "programs" // the benchmark's op loops and the façade they call through
	}
	if rest, ok := strings.CutPrefix(fn, internal); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		pkg, _, _ = strings.Cut(pkg, "/")
		for _, p := range programPkgs {
			if pkg == p {
				return "programs"
			}
		}
		for _, n := range shareNames {
			if pkg == n {
				return n
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/internal") || strings.HasPrefix(fn, "internal/runtime") {
		for _, s := range gcFuncs {
			if strings.Contains(fn, s) {
				return "gc"
			}
		}
		for _, s := range schedFuncs {
			if strings.Contains(fn, s) {
				return "sched"
			}
		}
	}
	return "other"
}
