package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"runtime/debug"
	"time"

	_ "repro/internal/experiments" // registers the scenarios
	"repro/internal/harness"
)

// workload is one named set of cells the benchmark runs back to back on
// one worker: the cells of its scenarios, in declaration order, under
// fixed harness options, at one or more seeds derived from the run's
// seed.
type workload struct {
	name      string
	scenarios []string
	opt       harness.Opts
	// seeds is how many seeds one pass covers: seed n runs the cells at
	// seeds n·seeds … n·seeds+seeds-1, so seed 0 includes the paper
	// seeds. A workload whose work varies strongly with the seed covers
	// several, so that one run stands for the workload rather than for
	// one seed.
	seeds int
}

// workloads are chosen so that each optimisable layer does most of its
// work in one workload and little or none in another (see README.md).
var workloads = []workload{
	// The paper's single-node artefacts: kernel preemption versus
	// SCHED_COOP handoffs under spinning runtimes. Dominated by proc
	// switches; sparse timers; no cluster, load, obs or pdes. The
	// microservices and schedcmp cells take up to 2.5 times longer at
	// one seed than at another, so a pass covers four seeds.
	{name: "node", scenarios: []string{"matmul", "cholesky", "microservices", "lammps", "schedcmp"},
		opt: harness.Opts{Quick: true}, seeds: 4},
	// The quick cluster sweep on one shared engine with telemetry on:
	// multi-node procs, plain dispatch, all routers, load and obs.
	{name: "fleet", scenarios: []string{"cluster"},
		opt: harness.Opts{Quick: true, Metrics: true, SpanRecords: true}, seeds: 1},
	// The full chaos sweep on two pdes shards: pure events, dense
	// quantised retry timers, resilient dispatch and pdes windows. How
	// far a retry storm runs depends on the seed (one seed's heap
	// allocation differs from another's by up to 20%), so a pass covers
	// five seeds.
	{name: "chaos", scenarios: []string{"chaos"}, opt: harness.Opts{Shards: 2}, seeds: 5},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// unit is one scenario's expanded cells at one seed.
type unit struct {
	key      string // scenario name, prefixed with the seed when a pass covers several
	opt      harness.Opts
	scenario *harness.Scenario
	jobs     []harness.Job
}

// setup expands the workload's cells at every seed of a pass: registry
// lookup plus Scenario.Jobs. This is the work setup_s times.
func (w workload) setup(seed uint64) ([]unit, error) {
	var out []unit
	for i := 0; i < w.seeds; i++ {
		opt := w.opt
		opt.Seed = seed*uint64(w.seeds) + uint64(i)
		for _, name := range w.scenarios {
			s, ok := harness.Lookup(name)
			if !ok {
				return nil, fmt.Errorf("scenario %q is not registered", name)
			}
			key := name
			if w.seeds > 1 {
				key = fmt.Sprintf("seed%d/%s", opt.Seed, name)
			}
			out = append(out, unit{key: key, opt: opt, scenario: s, jobs: s.Jobs(opt)})
		}
	}
	return out, nil
}

// cellRun is one cell's outcome within a pass.
type cellRun struct {
	unit, name string // the unit's key and the job's name
	out        harness.Output
	host       time.Duration
	err        error // a recovered panic or a failed check
	digest     string
}

// pass is one timed pass over a workload's cells.
type pass struct {
	cells   []cellRun
	renders map[string]string // unit key -> digest of its rendered tables
	// renderErr records a unit whose Render panicked.
	renderErr map[string]error
	exports   string // digest of the metric and span CSVs ("" without telemetry)
	rows      int    // exported metric + span rows

	wall, cpu     time.Duration
	render, exprt time.Duration
	allocBytes    uint64
	// wallRef and cpuRef are wall and cpu in reference loops, measured
	// by the gauge of an untraced pass (0 in a traced one).
	wallRef, cpuRef float64
}

// runPass runs every cell of the workload once, closed loop on the
// calling goroutine, then renders each scenario and writes the
// telemetry exports. Everything from set-up to the last export is
// timed; digests are taken afterwards, outside the timing.
// tr, when non-nil, records a span around every call into the program.
// An untraced pass is measured with a gauge, whose probes between
// cells are left out of its times.
func (w workload) runPass(seed uint64, tr *tracer, parent int) (*pass, error) {
	p := &pass{renders: map[string]string{}, renderErr: map[string]error{}}
	before := readCounters()
	var g *gauge
	if tr == nil {
		g = startGauge()
	}
	start := time.Now()

	sp := tr.begin("setup", parent)
	units, err := w.setup(seed)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	results := make([][]harness.Result, len(units))
	for ui, u := range units {
		results[ui] = make([]harness.Result, len(u.jobs))
		for ji, job := range u.jobs {
			sp := tr.begin("cell:"+u.key+"/"+job.Name, parent)
			c := runCell(u.key, job)
			tr.end(sp)
			g.tick()
			p.cells = append(p.cells, c)
			results[ui][ji] = harness.Result{Value: c.out.Value, Samples: c.out.Samples, Spans: c.out.Spans}
			results[ui][ji].Metric.Cell = job.Name
		}
	}

	texts := map[string]string{}
	renderStart := time.Now()
	sp = tr.begin("render", parent)
	for ui, u := range units {
		if failedIn(p.cells, u.key) {
			continue // Render assumes every cell produced its value
		}
		text, err := render(u.scenario, u.opt, results[ui])
		if err != nil {
			p.renderErr[u.key] = err
			continue
		}
		texts[u.key] = text
	}
	tr.end(sp)
	p.render = time.Since(renderStart)

	// With telemetry on, write the exports as `uschedsim -metrics -spans`
	// does, streaming them through the digest in place of the files.
	var exported hash.Hash
	if w.opt.Metrics || w.opt.SpanRecords {
		exportStart := time.Now()
		sp = tr.begin("export", parent)
		sw := &harness.Sweep{Opt: units[0].opt, Par: 1}
		for ui, u := range units {
			sw.Scenarios = append(sw.Scenarios, harness.ScenarioResult{Scenario: u.scenario, Results: results[ui]})
		}
		exported = sha256.New()
		if err := sw.WriteMetrics(exported, true); err != nil {
			return nil, fmt.Errorf("write metrics: %w", err)
		}
		if err := sw.WriteSpans(exported, true); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		tr.end(sp)
		p.exprt = time.Since(exportStart)
	}

	p.wall = time.Since(start)
	after := readCounters()
	p.cpu = after.cpu - before.cpu
	p.allocBytes = after.allocBytes - before.allocBytes
	if g != nil {
		g.probe()
		p.wall, p.cpu, p.wallRef, p.cpuRef = g.wall, g.cpu, g.wallRef, g.cpuRef
	}

	// Keep only the digests and work counts, so that memory does not
	// grow with the number of passes and max_rss_mb stays one pass's.
	for k, text := range texts {
		p.renders[k] = digestBytes([]byte(text))
	}
	if exported != nil {
		p.exports = digestSum(exported)
	}
	for i := range p.cells {
		c := &p.cells[i]
		if c.err == nil {
			c.digest = digestOutput(c.out)
		}
		if exported != nil {
			p.rows += len(c.out.Samples) + len(c.out.Spans) // one export row each
		}
		c.out = harness.Output{SimTime: c.out.SimTime, Events: c.out.Events, Windows: c.out.Windows}
	}
	return p, nil
}

// runCell runs one job, converting a panic into the cell's error.
func runCell(unit string, job harness.Job) (c cellRun) {
	c = cellRun{unit: unit, name: job.Name}
	start := time.Now()
	defer func() {
		c.host = time.Since(start)
		if r := recover(); r != nil {
			c.err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	c.out = job.Run()
	if c.out.SimTime <= 0 {
		c.err = fmt.Errorf("simulated clock did not advance")
	}
	return c
}

// render calls the scenario's renderer, converting a panic into an
// error.
func render(s *harness.Scenario, opt harness.Opts, results []harness.Result) (text string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("render %s: panic: %v", s.Name, r)
		}
	}()
	return s.Render(opt, results), nil
}

func failedIn(cells []cellRun, unit string) bool {
	for _, c := range cells {
		if c.unit == unit && c.err != nil {
			return true
		}
	}
	return false
}
