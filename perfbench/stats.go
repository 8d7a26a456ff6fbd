package main

import (
	"context"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
	"unsafe"

	"probequorum/internal/stats"
)

// median is the nearest-rank median (0 for an empty slice).
func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }

// runtimeStats is a reading of the process-wide runtime counters.
type runtimeStats struct {
	gcCycles, allocBytes, allocObjects uint64
}

var runtimeSamples = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeStats{
		gcCycles:     s[0].Value.Uint64(),
		allocBytes:   s[1].Value.Uint64(),
		allocObjects: s[2].Value.Uint64() + s[3].Value.Uint64(),
	}
}

// allocsSince is the heap allocation count since an earlier reading.
func allocsSince(r runtimeStats) uint64 { return readRuntime().allocObjects - r.allocObjects }

// clocks is what a stretch of the run was given: wall time and the CPU
// time the process used (user + system). On a shared virtual machine the
// kernel leaves time the host took from the CPUs (steal) out of a
// process's CPU time.
type clocks struct {
	wall, cpu time.Duration
}

func (c clocks) sub(o clocks) clocks {
	return clocks{wall: c.wall - o.wall, cpu: c.cpu - o.cpu}
}

// readClocks reads the clocks, wall time counted from start.
func readClocks(start time.Time) clocks {
	var ru syscall.Rusage
	c := clocks{wall: time.Since(start)}
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return c
}

// The calibrator measures the host's speed while a workload runs: every
// calibrationGap it runs one fixed unit of the benchmark's own work, which
// calls no program code, on a thread of its own and records that
// thread's CPU time for it. The host's speed drifts by tens of percent
// over minutes, in CPU time too, and the unit slows down with it, so
// throughput per CPU second scaled by the unit's time (see
// calibrationRefMS) moves much less, while a change to the program moves
// it as before.
type calibrator struct {
	cancel context.CancelFunc
	done   chan struct{}
	units  []float64 // CPU ms per unit
}

// calibrationGap is the pause between units: the calibrator takes about
// 2% of one core.
const calibrationGap = 50 * time.Millisecond

// startCalibrator starts the calibrator; it runs until finish is called
// or ctx is done.
func startCalibrator(ctx context.Context) *calibrator {
	ctx, cancel := context.WithCancel(ctx)
	c := &calibrator{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(c.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		t := time.NewTicker(calibrationGap)
		defer t.Stop()
		for {
			start := threadCPU()
			calSink += calibrationUnit()
			c.units = append(c.units, float64(threadCPU()-start)/float64(time.Millisecond))
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
		}
	}()
	return c
}

// finish stops the calibrator, waits for it to end, and returns the
// median CPU time of a unit in ms and the number of units. It may be
// called more than once.
func (c *calibrator) finish() (float64, int) {
	c.cancel()
	<-c.done
	return median(c.units), len(c.units)
}

// threadCPU is the calling thread's CPU time, read with
// clock_gettime(CLOCK_THREAD_CPUTIME_ID): getrusage advances a running
// thread's time only at scheduler ticks, too coarse for one unit.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// calTable and calSink belong to the one calibrator a run starts.
var (
	calTable [1 << 13]uint64 // 64 KiB, the size of a hot table
	calSink  uint64
)

// calibrationUnit is the fixed unit of work: a xorshift stream driving
// table reads and writes, bit counts and a dependent float chain, the mix
// the engines' inner loops run.
func calibrationUnit() uint64 {
	x, acc, f := uint64(0x9e3779b97f4a7c15), uint64(0), 1.0
	for i := 0; i < calibrationIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (uint64(len(calTable)) - 1)
		calTable[j] += x
		acc += uint64(bits.OnesCount64(calTable[(j*7)&(uint64(len(calTable))-1)] ^ x))
		f = f*0.9999999 + float64(acc&1023)
	}
	return acc + uint64(f)
}

// calibrationIters sizes a unit at about a millisecond on a 2.1 GHz Xeon.
const calibrationIters = 150_000
