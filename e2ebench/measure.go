package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quartiles returns the first quartile, median and third quartile of xs by
// the rule of Python's statistics.quantiles(xs, n=4) (method "exclusive"),
// the rule steadiness is judged by.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		m := percentile(s, 50)
		return m, m, m
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = clamp(j, 1, n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), percentile(s, 50), q(3)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// percentile is the nearest-rank-interpolated p-th percentile of sorted s.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(s) {
		s = append([]float64(nil), s...)
		sort.Float64s(s)
	}
	pos := p / 100 * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// selfCPU is the benchmark process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU times
// (100 on every Linux ABI Go supports).
const clockTick = 100

// procCPU reads a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ")".
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	// After ")": state(0) ppid(1) ... utime(11) stime(12).
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed cpu fields in /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// statusMiB reads a memory field of /proc/<pid>/status ("self" or a pid),
// such as VmHWM (peak resident set) or VmRSS.
func statusMiB(pid, field string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, field+":") {
			kb, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%s/status", field, pid)
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, for the steal share.
type cpuTimes struct{ total, steal uint64 }

func readCPUTimes() cpuTimes {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	var ct cpuTimes
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		// guest and guest_nice (fields 9, 10) are already counted in user.
		if i < 8 {
			ct.total += n
		}
		if i == 7 {
			ct.steal = n
		}
	}
	return ct
}

// stealPct is the share of all CPU time the hypervisor stole between a and b.
func stealPct(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// quietOf marks the samples taken while the host was quiet: those whose
// steal share is at most the median of the run's samples, or at most 2 %.
// The host is a shared VM whose neighbours take the CPU in bursts; a sample
// they disturbed shows it as steal, and the quiet samples repeat from run
// to run where all samples do not.
func quietOf(steal []float64) []bool {
	limit := max(2, median(steal))
	q := make([]bool, len(steal))
	for i, s := range steal {
		q[i] = s <= limit
	}
	return q
}

// setupClock times repeated set-ups, with the host's steal share over each.
type setupClock struct{ secs, steal []float64 }

type setupStart struct {
	t  time.Time
	ct cpuTimes
}

func (c *setupClock) start() setupStart { return setupStart{time.Now(), readCPUTimes()} }

func (c *setupClock) stop(s setupStart) {
	c.secs = append(c.secs, time.Since(s.t).Seconds())
	c.steal = append(c.steal, stealPct(s.ct, readCPUTimes()))
}

// median is the median time of the quiet set-ups.
func (c *setupClock) median() float64 {
	var xs []float64
	for i, q := range quietOf(c.steal) {
		if q {
			xs = append(xs, c.secs[i])
		}
	}
	return median(xs)
}

// readRuntime reads the Go runtime's cumulative counters: bytes allocated
// on the heap, the collector's CPU less its idle-time marking, and the CPU
// time available to the process (GOMAXPROCS × wall time), in seconds. The
// CPU figures are those of the last collection's end; their ratio over an
// interval is the collector's share of the CPU, as GCCPUFraction is over
// the process's life.
func readRuntime() (allocBytes uint64, gcCPU, totalCPU float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/gc/mark/idle:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Float64() - s[2].Value.Float64(), s[3].Value.Float64()
}

// heapAllocs is the bytes the process has allocated on the heap so far.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
