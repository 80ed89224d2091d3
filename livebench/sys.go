package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// provenance describes the host and build a record was measured on. A
// shared host's speed drifts over hours, so records compare best as
// alternating pairs taken on one host.
type provenance struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Start      string `json:"start"`
}

func hostProvenance() provenance {
	commit := os.Getenv("LIVEBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return provenance{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(),
		GoVersion: runtime.Version(), Commit: commit, Start: time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// runtimeSnap is a reading of the Go runtime's allocation and CPU
// counters; runtimeDelta is the difference of two.
type runtimeSnap struct {
	allocBytes, mallocs uint64
	gcCPU, totalCPU     float64
}

type runtimeDelta struct {
	allocBytes, mallocs uint64
	gcCPU, totalCPU     float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(cpuSamples))
	copy(s, cpuSamples)
	metrics.Read(s)
	return runtimeSnap{
		allocBytes: ms.TotalAlloc, mallocs: ms.Mallocs,
		gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(),
	}
}

func (b runtimeSnap) sub(a runtimeSnap) runtimeDelta {
	return runtimeDelta{
		allocBytes: b.allocBytes - a.allocBytes, mallocs: b.mallocs - a.mallocs,
		gcCPU: b.gcCPU - a.gcCPU, totalCPU: b.totalCPU - a.totalCPU,
	}
}
