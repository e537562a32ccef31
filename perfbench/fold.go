package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile runtime/pprof writes is a gzipped profile.proto
// message. The benchmark needs only each sample's CPU nanoseconds and
// its stack of function names, so it decodes those fields directly
// rather than depending on a profile library.

// cpuSample is one profile sample: its CPU time and its frames, leaf
// first, inlined frames expanded.
type cpuSample struct {
	ns     int64
	frames []string
}

// decodeCPUProfile parses a gzipped CPU profile into samples.
func decodeCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs []uint64
		vals []int64
	}
	var (
		strs       []string
		valueTypes []int64 // string index of each sample value's type
		samples    []rawSample
		locLines   = map[uint64][]uint64{} // location -> function ids, leaf first
		funcName   = map[uint64]int64{}    // function -> name string index
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					valueTypes = append(valueTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendUints(&s.locs, w, v, b)
				case 2:
					var vs []uint64
					if err := appendUints(&vs, w, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.vals = append(s.vals, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	cpuIdx := -1
	for i, t := range valueTypes {
		if str(t) == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if cpuIdx >= len(s.vals) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		cs := cpuSample{ns: s.vals[cpuIdx]}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				cs.frames = append(cs.frames, str(funcName[fn]))
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// eachField walks the fields of one protobuf message, passing each
// field's number, wire type and either its varint value or its bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated uint64 field that may arrive packed
// (wire type 2) or as single varints.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire != 2 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// layers lists every fold bucket in print order. otherLayer takes every
// frame the fold does not recognise, so the buckets always sum to the
// profile total.
var layers = []string{
	"cpu.go.sched", "cpu.go.gc", "cpu.go.maps", otherLayer,
	"cpu.sim", "cpu.sim.pdes", "cpu.kernel",
	"cpu.rt.spin", "cpu.rt", "cpu.glibc", "cpu.nosv", "cpu.usf",
	"cpu.cluster", "cpu.load", "cpu.obs", "cpu.metrics",
	"cpu.harness", "cpu.workloads",
}

const otherLayer = "cpu.go.other"

// repoLayers maps a package under repro/internal/ to its layer; a
// package not listed here inherits the layer of its nearest listed
// parent directory (rt/omp -> rt).
var repoLayers = map[string]string{
	"sim":         "cpu.sim",
	"sim/pdes":    "cpu.sim.pdes",
	"kernel":      "cpu.kernel",
	"rt/spin":     "cpu.rt.spin",
	"rt":          "cpu.rt",
	"glibc":       "cpu.glibc",
	"nosv":        "cpu.nosv",
	"usf":         "cpu.usf",
	"cluster":     "cpu.cluster",
	"load":        "cpu.load",
	"obs":         "cpu.obs",
	"metrics":     "cpu.metrics",
	"harness":     "cpu.harness",
	"experiments": "cpu.harness",
	"workloads":   "cpu.workloads",
	"blas":        "cpu.workloads",
	"mpi":         "cpu.workloads",
	"hw":          "cpu.workloads",
	"stack":       "cpu.workloads",
}

// Runtime frames are split by what the runtime was doing: the first
// frame, walking from the leaf towards the root, that names a map
// operation, a GC or allocation step, or a scheduler step decides.
var (
	mapPrefixes = []string{
		"internal/runtime/maps.", "runtime.map", "runtime.makemap",
	}
	gcPrefixes = []string{
		"runtime.gc", "runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice",
		"runtime.mark", "runtime.scan", "runtime.greyobject", "runtime.findObject", "runtime.sweep",
		"runtime.bgsweep", "runtime.bgscavenge", "runtime.wbBuf", "runtime.bulkBarrier",
		"runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*gcWork)",
		"runtime.(*mspan)", "runtime.(*sweepLocked)", "runtime.(*gcControllerState)",
		"runtime.(*pageAlloc)", "runtime.(*scavengerState)", "runtime.(*gcBits)",
		"runtime.heapBits", "runtime.typePointers", "runtime.(*typePointers)",
	}
	schedPrefixes = []string{
		"runtime.schedule", "runtime.park_m", "runtime.gopark", "runtime.goready", "runtime.ready",
		"runtime.chansend", "runtime.chanrecv", "runtime.closechan", "runtime.selectgo", "runtime.send",
		"runtime.recv", "runtime.findRunnable", "runtime.mcall", "runtime.gosched", "runtime.goschedImpl",
		"runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.notesleep", "runtime.notewakeup",
		"runtime.futexsleep", "runtime.futexwakeup", "runtime.execute", "runtime.runq", "runtime.globrunq",
		"runtime.goexit", "runtime.newproc", "runtime.casgstatus", "runtime.sysmon", "runtime.handoffp",
		"runtime.acquirep", "runtime.releasep", "runtime.resetspinning", "runtime.checkTimers",
		"runtime.netpoll", "runtime.(*timers)", "runtime.stealWork", "runtime.goroutineReady",
		"runtime.gogo", "runtime.mstart", "runtime.exitsyscall", "runtime.entersyscall",
	}
)

// layerOf names the layer of one sample's stack (leaf first). The leaf
// frame's package decides, except that a runtime leaf is attributed by
// the nearest runtime frame naming a map, GC or scheduler operation.
func layerOf(frames []string) string {
	if len(frames) == 0 {
		return otherLayer
	}
	pkg := packageOf(frames[0])
	if rel, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		for p := rel; p != "."; {
			if l, ok := repoLayers[p]; ok {
				return l
			}
			i := strings.LastIndexByte(p, '/')
			if i < 0 {
				break
			}
			p = p[:i]
		}
		return otherLayer
	}
	if !isRuntime(pkg) {
		return otherLayer
	}
	for _, f := range frames {
		if !isRuntime(packageOf(f)) {
			break
		}
		switch {
		case hasAnyPrefix(f, mapPrefixes):
			return "cpu.go.maps"
		case hasAnyPrefix(f, gcPrefixes):
			return "cpu.go.gc"
		case hasAnyPrefix(f, schedPrefixes):
			return "cpu.go.sched"
		}
	}
	return otherLayer
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/")
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// packageOf returns the import path of a symbol name such as
// "repro/internal/sim.(*Engine).Run" or "runtime.mallocgc".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// fold sums sample CPU time per layer. Every sample lands in exactly
// one layer, so the result sums to the profile total.
func fold(samples []cpuSample) map[string]int64 {
	out := make(map[string]int64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	for _, s := range samples {
		out[layerOf(s.frames)] += s.ns
	}
	return out
}
