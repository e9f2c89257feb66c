package main

import (
	"math/rand"
	"runtime"
	"sync"
	"syscall"
)

// The host's CPU speed drifted by a third within minutes while the
// benchmark was tuned (other tenants' cache and memory traffic; host steal
// stayed near 0), moving every time crskyd took by the same factor. A
// fixed calibration loop that shares no code with crsky measures that
// speed next to each timed phase; the gated metrics are rescaled to the
// reference speed calRefMs, so they track crskyd, not the host.

// calRefMs is the calibration loop's CPU time at the reference speed: its
// median on the 2-vCPU machine the benchmark was tuned on.
const calRefMs = 147.0

// calSteps is how many dependent loads each calibration goroutine makes.
const calSteps = 750_000

// calibrator walks a random cycle through a 16 MB table, the pointer-
// chasing and branchy arithmetic that R-tree and skyline code do.
type calibrator struct {
	next []int32
	ms   []float64 // every measurement so far
	sink float64
}

func newCalibrator() *calibrator {
	const n = 1 << 22
	perm := rand.New(rand.NewSource(1)).Perm(n)
	next := make([]int32, n)
	for i := range perm {
		next[perm[i]] = int32(perm[(i+1)%n])
	}
	return &calibrator{next: next}
}

// cpuMs runs the loop on every CPU at once and returns the process CPU
// time per goroutine in ms. CPU time, unlike wall time, excludes host
// steal, which the wall-clock metrics are scaled for separately.
func (c *calibrator) cpuMs() float64 {
	runtime.GC()
	before := processCPU()
	procs := runtime.GOMAXPROCS(0)
	sums := make([]float64, procs)
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			j := int32(g * 7919)
			var acc float64
			for s := 0; s < calSteps; s++ {
				j = c.next[j]
				if j&1 == 0 {
					acc += float64(j) * 1e-9
				} else {
					acc -= float64(j&1023) * 1e-6
				}
			}
			sums[g] = acc
		}(g)
	}
	wg.Wait()
	for _, s := range sums {
		c.sink += s
	}
	return (processCPU() - before) * 1000 / float64(procs)
}

// sample runs the loop n times, keeping each measurement.
func (c *calibrator) sample(n int) {
	for i := 0; i < n; i++ {
		c.ms = append(c.ms, c.cpuMs())
	}
}

// factor rescales a time measured around the samples to the reference
// speed: calRefMs over the samples' median. Times are multiplied by it,
// rates divided.
func (c *calibrator) factor() float64 {
	return calRefMs / quantile(c.ms, 0.5)
}

// processCPU is this process's user+system CPU time in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}
