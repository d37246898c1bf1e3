package main

// Process and machine readings: CPU time from getrusage, peak resident
// set and steal ticks from /proc (read only), Go runtime counters from
// runtime/metrics.

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// statusMB reads one kB field of /proc/self/status (VmRSS, VmHWM) in
// MiB; 0 when unreadable.
func statusMB(field string) float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// stealTicks reads the machine-wide steal column of /proc/stat's cpu
// line: time, in USER_HZ ticks, the hypervisor ran something else while
// this guest's vCPUs wanted to run. -1 when unavailable.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// userHZ is the unit of /proc/stat's tick counts on Linux.
const userHZ = 100

// vcpus is the number of per-CPU lines in /proc/stat: the CPUs whose
// steal the cpu line sums.
func vcpus() int {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return runtime.NumCPU()
	}
	n := 0
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "cpu") && len(line) > 3 && line[3] >= '0' && line[3] <= '9' {
			n++
		}
	}
	return max(n, 1)
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runtimeSample holds the runtime/metrics counters read around a phase.
type runtimeSample struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
	}
}

// heapSampler tracks the largest live-heap reading seen while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak live heap in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

func machineLine() string {
	return fmt.Sprintf("machine: GOMAXPROCS=%d NumCPU=%d cpu=%q go=%s %s/%s",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
