package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// counters is a snapshot of the process-wide quantities the benchmark
// reports as deltas over a pass.
type counters struct {
	cpu        time.Duration // user + system CPU of the whole process
	allocBytes uint64        // cumulative Go heap bytes allocated
	mallocs    uint64        // cumulative Go heap objects allocated
	gcCycles   uint64        // completed GC cycles
	gcCPU      float64       // estimated GC CPU seconds
	schedLat   *metrics.Float64Histogram
}

var counterNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readCounters() counters {
	samples := make([]metrics.Sample, len(counterNames))
	for i, n := range counterNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	return counters{
		cpu:        processCPU(),
		allocBytes: samples[0].Value.Uint64(),
		mallocs:    samples[1].Value.Uint64(),
		gcCycles:   samples[2].Value.Uint64(),
		gcCPU:      samples[3].Value.Float64(),
		schedLat:   samples[4].Value.Float64Histogram(),
	}
}

// peakRSSBytes is the peak resident set size of this process's address
// space (VmHWM). getrusage's ru_maxrss is not used: it carries over
// the peak of the address space the process replaced at exec, which
// for a child started with vfork is its launcher's.
func peakRSSBytes() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	return parseVmHWM(status)
}

func parseVmHWM(status []byte) (float64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb * 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

// histQuantile returns the q-quantile of the difference between two
// cumulative snapshots of one runtime histogram, taking the upper edge
// of the bucket the quantile falls in (an infinite edge falls back to
// the lower one). It returns 0 when no samples landed between them.
func histQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	delta := make([]uint64, len(after.Counts))
	for i := range after.Counts {
		delta[i] = after.Counts[i] - before.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, n := range delta {
		seen += n
		if seen >= rank {
			if hi := after.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return after.Buckets[i]
		}
	}
	return after.Buckets[len(after.Buckets)-1]
}

// probeLoops sizes hostProbe to about 0.1 s on a 2.1 GHz Xeon.
const probeLoops = 60_000_000

// probeSink keeps the probe's result live so the loop is not removed.
var probeSink uint64

// hostProbe times a fixed dependent-multiply loop. It does the same
// work on every call, so its time tracks the host's speed at that
// moment, not the program's.
func hostProbe() time.Duration {
	start := time.Now()
	spin(probeLoops)
	return time.Since(start)
}

func spin(loops int) {
	x := uint64(1)
	for i := 0; i < loops; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	probeSink = x
}

// gaugeLoops sizes the gauge's probe to a tenth of hostProbe, and
// gaugeEvery is how much of a pass runs between two of them: the
// probes add about 2% to a pass, and are not counted in it.
const (
	gaugeLoops = probeLoops / 10
	gaugeEvery = 500 * time.Millisecond
)

// gaugeProbe is one reference loop's wall time, scaled from a gauge
// probe.
func gaugeProbe() time.Duration {
	start := time.Now()
	spin(gaugeLoops)
	return time.Since(start) * probeLoops / gaugeLoops
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gauge measures an untraced pass against the host's speed at the
// time. The speed of this shared host drifts by a third and more over
// minutes, and a pass's wall and CPU seconds drift with it. So the
// gauge times the reference loop at the start of the pass, between
// cells whenever gaugeEvery has run since the last probe, and at the
// end. It divides the wall and the CPU time of each stretch of the
// pass between two probes by the mean of those two probes' wall times,
// and sums the quotients: the pass's time in reference loops, which
// holds still while the host's speed moves. (The probe's own CPU time,
// read per thread, scattered twice as much as its wall time.)
type gauge struct {
	last      time.Duration // the last probe
	segStart  time.Time     // end of the last probe
	segCPU    time.Duration // process CPU at segStart
	wall, cpu time.Duration // the pass's time outside the probes
	wallRef   float64       // wall, in reference loops
	cpuRef    float64       // process CPU, in reference loops
}

func startGauge() *gauge {
	g := &gauge{}
	g.probe()
	return g
}

// tick probes when gaugeEvery has run since the last probe. A nil
// gauge does nothing, so traced passes share the code path.
func (g *gauge) tick() {
	if g != nil && time.Since(g.segStart) >= gaugeEvery {
		g.probe()
	}
}

// probe closes the stretch since the last probe and opens the next.
func (g *gauge) probe() {
	now, cpu := time.Now(), processCPU()
	p := gaugeProbe()
	if !g.segStart.IsZero() {
		w, c := now.Sub(g.segStart), cpu-g.segCPU
		g.wall += w
		g.cpu += c
		ref := (g.last + p).Seconds() / 2
		g.wallRef += w.Seconds() / ref
		g.cpuRef += c.Seconds() / ref
	}
	g.last = p
	g.segStart, g.segCPU = time.Now(), processCPU()
}
