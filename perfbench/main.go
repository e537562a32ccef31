// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload's simulation cells back to back on one worker (a closed
// loop with one client), checks every cell's output against recorded
// digests, and prints the metrics as one JSON object on the last line
// of standard output.
//
// With -trace 0 it reports the end-to-end metrics of untraced passes.
// With -trace 1 it runs one untraced and one traced pass and reports
// per-layer metrics from the traced one: spans around each call into
// the program, a CPU profile folded by layer, Go runtime counters and
// the work counts the cells return. See README.md.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload node --seed 1 --seconds 30 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupSamples is how many fresh processes time the cold set-up; their
// median is setup_s.
const setupSamples = 21

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	traceDir string
	// record, when set, is a directory to store the run's digests in,
	// instead of checking against the stored ones.
	record string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var probe bool
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&cfg.seed, "seed", 0, "run seed; each workload derives its scenario seeds from it (0 includes the paper seeds)")
	fs.IntVar(&cfg.seconds, "seconds", 30, "measure whole passes for about this many seconds (at least one pass)")
	fs.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced pass")
	fs.StringVar(&cfg.traceDir, "trace-dir", ".bench_build/trace", "directory for the traced run's spans and fold table")
	fs.StringVar(&cfg.record, "record", "", "store this run's digests in `dir` instead of checking them")
	fs.BoolVar(&probe, "setup-probe", false, "time one cold set-up of the workload and print its nanoseconds (internal)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	w, ok := lookupWorkload(cfg.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if cfg.seconds < 1 || (cfg.trace != 0 && cfg.trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	if probe {
		start := time.Now()
		if _, err := w.setup(cfg.seed); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, time.Since(start).Nanoseconds())
		return 0
	}
	res, err := run(w, cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return ns
}

// run measures the workload and checks its outputs.
func run(w workload, cfg config, log io.Writer) (*result, error) {
	var want *record
	if cfg.record == "" {
		stored, err := storedDigests(w.name)
		if err != nil {
			return nil, err
		}
		if r, ok := stored[strconv.FormatUint(cfg.seed, 10)]; ok {
			want = &r
		} else {
			fmt.Fprintf(log, "no recorded digests for %s seed %d: checking determinism only\n", w.name, cfg.seed)
		}
	}

	probeStart := hostProbe()
	setups, err := coldSetups(w, cfg.seed)
	if err != nil {
		return nil, err
	}

	var passes []*pass
	var tr *tracer
	var profile bytes.Buffer
	var before, after counters
	if cfg.trace == 0 {
		budget := time.Duration(cfg.seconds) * time.Second
		var measured time.Duration
		for {
			p, err := w.runPass(cfg.seed, nil, 0)
			if err != nil {
				return nil, err
			}
			passes = append(passes, p)
			measured += p.wall
			// Stop when another pass of the same length would overrun.
			if measured+p.wall > budget {
				break
			}
		}
	} else {
		untraced, err := w.runPass(cfg.seed, nil, 0)
		if err != nil {
			return nil, err
		}
		tr = newTracer(fmt.Sprintf("%s-seed%d-%d", w.name, cfg.seed, time.Now().UnixNano()))
		root := tr.begin("pass:"+w.name, 0)
		if err := pprof.StartCPUProfile(&profile); err != nil {
			return nil, err
		}
		before = readCounters()
		traced, err := w.runPass(cfg.seed, tr, root)
		after = readCounters()
		pprof.StopCPUProfile()
		tr.end(root)
		if err != nil {
			return nil, err
		}
		passes = []*pass{untraced, traced}
	}
	problems := checkPasses(passes, want)
	probeEnd := hostProbe()

	res := &result{}
	for pi, p := range passes {
		fmt.Fprintf(log, "pass %d: wall %.3fs (%.2f ref) cpu %.3fs (%.2f ref) alloc %.1fMB\n",
			pi, p.wall.Seconds(), p.wallRef, p.cpu.Seconds(), p.cpuRef, float64(p.allocBytes)/1e6)
		for _, c := range p.cells {
			res.Attempted++
			if c.err != nil {
				res.Failed++
				fmt.Fprintf(log, "FAIL %s/%s: %v\n", c.unit, c.name, c.err)
			}
		}
	}
	for _, pr := range problems {
		fmt.Fprintln(log, "FAIL", pr)
	}
	fmt.Fprintf(log, "host probe: %.4fs at start, %.4fs at end\n", probeStart.Seconds(), probeEnd.Seconds())
	res.Correct = res.Failed == 0 && len(problems) == 0

	if cfg.trace == 0 {
		rss, err := peakRSSBytes()
		if err != nil {
			return nil, fmt.Errorf("peak RSS: %w", err)
		}
		res.Metrics = endToEnd(passes, setups, rss)
	} else {
		samples, err := decodeCPUProfile(profile.Bytes())
		if err != nil {
			return nil, err
		}
		byLayer := fold(samples)
		var sampled, folded int64
		for _, s := range samples {
			sampled += s.ns
		}
		for _, ns := range byLayer {
			folded += ns
		}
		if folded != sampled {
			res.Correct = false
			fmt.Fprintf(log, "FAIL fold holds %d ns of a %d ns profile\n", folded, sampled)
		}
		res.Metrics = perLayer(passes[0], passes[1], byLayer, before, after, (probeStart+probeEnd)/2)
		if err := writeTrace(cfg.traceDir, tr, foldTable(byLayer), log); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}

	if cfg.record != "" {
		if !res.Correct {
			return nil, errors.New("not recording digests of a failed run")
		}
		if err := writeDigest(cfg.record, w.name, cfg.seed, recordOf(passes[0])); err != nil {
			return nil, fmt.Errorf("record digests: %w", err)
		}
	}
	return res, nil
}

// coldSetups times the workload's set-up in fresh processes, once
// each, so every sample pays what a user pays once per invocation.
func coldSetups(w workload, seed uint64) ([]time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := make([]time.Duration, 0, setupSamples)
	for i := 0; i < setupSamples; i++ {
		cmd := exec.Command(exe, "-setup-probe", "-workload", w.name, "-seed", strconv.FormatUint(seed, 10))
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		ns, err := strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("set-up probe output %q: %w", b, err)
		}
		out = append(out, time.Duration(ns))
	}
	return out, nil
}

func endToEnd(passes []*pass, setups []time.Duration, peakRSS float64) map[string]metric {
	pick := func(f func(*pass) float64) float64 {
		vs := make([]float64, len(passes))
		for i, p := range passes {
			vs[i] = f(p)
		}
		return median(vs)
	}
	setupS := make([]float64, len(setups))
	for i, d := range setups {
		setupS[i] = d.Seconds()
	}
	return map[string]metric{
		"wall_ref":   {pick(func(p *pass) float64 { return p.wallRef }), "ref"},
		"cpu_ref":    {pick(func(p *pass) float64 { return p.cpuRef }), "ref"},
		"setup_s":    {median(setupS), "s"},
		"max_rss_mb": {peakRSS / 1e6, "MB"},
		"alloc_mb":   {pick(func(p *pass) float64 { return float64(p.allocBytes) / 1e6 }), "MB"},
	}
}

func perLayer(untraced, traced *pass, byLayer map[string]int64, before, after counters, probe time.Duration) map[string]metric {
	m := map[string]metric{}
	var total int64
	for l, ns := range byLayer {
		m[l] = metric{float64(ns) / 1e9, "s"}
		total += ns
	}
	m["cpu.total"] = metric{float64(total) / 1e9, "s"}

	var events, simNs, windows, windowEvents int64
	var eventHost, maxCell time.Duration
	for _, c := range traced.cells {
		events += c.out.Events
		simNs += int64(c.out.SimTime)
		windows += c.out.Windows
		if c.out.Events > 0 {
			eventHost += c.host
		}
		if c.out.Windows > 0 {
			windowEvents += c.out.Events
		}
		if c.host > maxCell {
			maxCell = c.host
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m["sim.events"] = metric{float64(events), "count"}
	m["sim.sim_s"] = metric{float64(simNs) / 1e9, "s"}
	m["sim.ns_per_event"] = metric{ratio(float64(eventHost.Nanoseconds()), float64(events)), "ns"}
	m["pdes.windows"] = metric{float64(windows), "count"}
	m["pdes.events_per_window"] = metric{ratio(float64(windowEvents), float64(windows)), "count"}
	m["obs.export_s"] = metric{traced.exprt.Seconds(), "s"}
	m["obs.rows"] = metric{float64(traced.rows), "count"}
	m["harness.render_s"] = metric{traced.render.Seconds(), "s"}
	m["cell.max_s"] = metric{maxCell.Seconds(), "s"}
	m["go.mallocs"] = metric{float64(after.mallocs - before.mallocs), "count"}
	m["go.gc_cycles"] = metric{float64(after.gcCycles - before.gcCycles), "count"}
	m["go.gc_cpu_s"] = metric{after.gcCPU - before.gcCPU, "s"}
	m["go.sched_latency_p50_us"] = metric{1e6 * histQuantile(before.schedLat, after.schedLat, 0.50), "us"}
	m["go.sched_latency_p99_us"] = metric{1e6 * histQuantile(before.schedLat, after.schedLat, 0.99), "us"}
	m["trace.overhead"] = metric{ratio(traced.wall.Seconds(), untraced.wall.Seconds()), "ratio"}
	m["host.probe_s"] = metric{probe.Seconds(), "s"}
	m["host.wall_s"] = metric{untraced.wall.Seconds(), "s"}
	m["host.cpu_s"] = metric{untraced.cpu.Seconds(), "s"}
	return m
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
