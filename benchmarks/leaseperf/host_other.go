//go:build !linux

package main

import "time"

// The host figures come from getrusage and /proc, which the reference host
// has. Elsewhere the benchmark builds and runs, and host.cpu_per_wall and
// host_peak_rss_mb read 0.

func cpuTime() time.Duration { return 0 }

func peakRSSMiB() float64 { return 0 }
