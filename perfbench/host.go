package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// descriptor is recorded next to every run's metrics so numbers from
// different machines or settings are never compared unknowingly.
type descriptor struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOARCH     string  `json:"goarch"`
	GoVersion  string  `json:"goVersion"`
	CPUModel   string  `json:"cpuModel"`
	Flush      string  `json:"flushPolicy"`
	Clients    int     `json:"clients"`
	Loop       string  `json:"loop"`
	StealPct   float64 `json:"stealPct"`
}

func newDescriptor(w workload, seed int64, seconds int, trace bool) descriptor {
	return descriptor{
		Workload:   w.name(),
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOARCH:     runtime.GOARCH,
		GoVersion:  goVersion(),
		CPUModel:   cpuModel(),
		Flush:      "crskyd -fsync=false",
		Clients:    w.clients(),
		Loop:       "closed",
	}
}

// goVersion is the version of the toolchain that builds crskyd (the go
// command on PATH), falling back to the benchmark's own runtime.
func goVersion() string {
	out, err := exec.Command("go", "env", "GOVERSION").Output()
	if v := strings.TrimSpace(string(out)); err == nil && v != "" {
		return v
	}
	return runtime.Version()
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct {
	total, steal uint64
}

func readCPUTimes() (cpuTimes, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("unexpected /proc/stat cpu line %q", line)
	}
	var t cpuTimes
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user, so only the first eight add.
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return cpuTimes{}, fmt.Errorf("/proc/stat field %d: %w", i, err)
		}
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t, nil
}

// stealPct is the host's steal share between two /proc/stat readings.
func stealPct(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// unstolen is the share of the interval between two readings that the
// host left to this VM: 1 minus the steal share, floored at 0.1. Wall-clock
// work on a CPU-bound VM stretches by its inverse, so the gated wall-clock
// metrics are scaled by it to measure the program, not the neighbours.
func unstolen(a, b cpuTimes) float64 {
	return max(0.1, 1-stealPct(a, b)/100)
}

// clockTicks is USER_HZ, the unit of /proc CPU times on Linux.
const clockTicks = 100

// processCPUSeconds reads a process's utime+stime from /proc/<pid>/stat.
func processCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after
	// its closing parenthesis, at field 3 (state).
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64) // field 14
	st, err2 := strconv.ParseUint(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu times in /proc/%d/stat", pid)
	}
	return float64(ut+st) / clockTicks, nil
}
