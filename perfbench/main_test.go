package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
)

// TestMain lets the test binary stand in for the benchmark binary when
// run re-executes itself to time a cold set-up.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-setup-probe" {
		os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// benchmarkSpec reads the metric lists the benchmark declares.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestSmoke runs every workload through the command's entry point and
// checks the result line: outputs correct against the recorded digests
// of the default seed, and exactly the declared metrics, well named,
// with their declared units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload (about a minute)")
	}
	endToEnd, perLayer := benchmarkSpec(t)
	for _, tc := range []struct {
		workload string
		trace    string
	}{{"node", "1"}, {"fleet", "0"}, {"chaos", "0"}} {
		t.Run(tc.workload, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := realMain([]string{"-workload", tc.workload, "-seed", "0", "-seconds", "1",
				"-trace", tc.trace, "-trace-dir", t.TempDir()}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit %d\n%s", code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct %v, %d of %d failed\n%s", res.Correct, res.Failed, res.Attempted, stderr.String())
			}
			want := endToEnd
			if tc.trace == "1" {
				want = perLayer
			}
			for name, m := range res.Metrics {
				if !metricName.MatchString(name) {
					t.Errorf("metric name %q", name)
				}
				if unit, ok := want[name]; !ok || unit != m.Unit {
					t.Errorf("metric %q in %q, declared %v in %q", name, m.Unit, ok, unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%d metrics printed, %d declared", len(res.Metrics), len(want))
			}
		})
	}
}

func TestFoldLayers(t *testing.T) {
	cases := []struct {
		frames []string
		layer  string
	}{
		{[]string{"repro/internal/sim.(*Engine).Run"}, "cpu.sim"},
		{[]string{"repro/internal/sim/pdes.(*Group).Run"}, "cpu.sim.pdes"},
		{[]string{"repro/internal/rt/spin.Until"}, "cpu.rt.spin"},
		{[]string{"repro/internal/rt/omp.(*Team).Fork"}, "cpu.rt"},
		{[]string{"repro/internal/workloads/inference.Run"}, "cpu.workloads"},
		{[]string{"repro/internal/experiments.runChaosCell"}, "cpu.harness"},
		{[]string{"repro/internal/kernel.(*Kernel).dispatch"}, "cpu.kernel"},
		{[]string{"runtime.lock2", "runtime.chansend", "repro/internal/sim.(*Engine).dispatch"}, "cpu.go.sched"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "repro/internal/sim.newEvent"}, "cpu.go.gc"},
		{[]string{"runtime.memhash64", "internal/runtime/maps.(*Map).getWithKeySmall"}, "cpu.go.maps"},
		{[]string{"runtime.memmove", "repro/internal/kernel.(*Kernel).enqueue"}, "cpu.go.other"},
		{[]string{"sort.insertionSort", "repro/internal/obs.MergeSamples"}, "cpu.go.other"},
		{[]string{"example.com/unknown.F"}, "cpu.go.other"},
		{[]string{"repro/internal/lint.Run"}, "cpu.go.other"},
		{nil, "cpu.go.other"},
	}
	var samples []cpuSample
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	for i, c := range cases {
		if got := layerOf(c.frames); got != c.layer {
			t.Errorf("layerOf(%q) = %s, want %s", c.frames, got, c.layer)
		}
		if !known[c.layer] {
			t.Errorf("layer %s is not in the layer list", c.layer)
		}
		samples = append(samples, cpuSample{ns: int64(i+1) * 10_000_000, frames: c.frames})
	}
	var total, folded int64
	for _, s := range samples {
		total += s.ns
	}
	byLayer := fold(samples)
	for l, ns := range byLayer {
		if !known[l] {
			t.Errorf("fold produced unlisted layer %s", l)
		}
		folded += ns
	}
	if folded != total || len(byLayer) != len(layers) {
		t.Errorf("fold holds %d ns in %d layers, want %d ns in %d", folded, len(byLayer), total, len(layers))
	}
}

// TestDecodeCPUProfile decodes a real runtime/pprof profile and checks
// that the fold keeps every sampled nanosecond.
func TestDecodeCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		hostProbe()
	}
	pprof.StopCPUProfile()
	samples, err := decodeCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, folded int64
	for _, s := range samples {
		total += s.ns
		if len(s.frames) == 0 {
			t.Errorf("sample without frames")
		}
	}
	for _, ns := range fold(samples) {
		folded += ns
	}
	if total < int64(100*time.Millisecond) || folded != total {
		t.Errorf("profile holds %d ns, fold %d ns", total, folded)
	}
	if _, err := decodeCPUProfile([]byte("not a profile")); err == nil {
		t.Errorf("garbage decoded without error")
	}
}

// nodeMatmulPass runs the node workload's matmul cells (the cheapest)
// as a pass.
func nodeMatmulPass(t *testing.T) *pass {
	t.Helper()
	w, _ := lookupWorkload("node")
	cells, err := w.setup(0)
	if err != nil {
		t.Fatal(err)
	}
	p := &pass{}
	for _, job := range cells[0].jobs {
		c := runCell(cells[0].key, job)
		if c.err != nil {
			t.Fatal(c.err)
		}
		c.digest = digestOutput(c.out)
		p.cells = append(p.cells, c)
	}
	return p
}

func TestCorruptDigestFailsCell(t *testing.T) {
	p := nodeMatmulPass(t)
	want := recordOf(p)
	if problems := checkPasses([]*pass{p}, &want); len(problems) != 0 {
		t.Fatalf("clean record: %v", problems)
	}
	for _, c := range p.cells {
		if c.err != nil {
			t.Fatalf("clean record failed %s: %v", c.name, c.err)
		}
	}
	bad := p.cells[1].unit + "/" + p.cells[1].name
	want.Cells[bad] = "0000000000000000"
	checkPasses([]*pass{p}, &want)
	for _, c := range p.cells {
		if failed := c.err != nil; failed != (c.unit+"/"+c.name == bad) {
			t.Errorf("cell %s failed=%v (%v)", c.name, failed, c.err)
		}
	}
}

func TestPassesMustAgree(t *testing.T) {
	a, b := nodeMatmulPass(t), nodeMatmulPass(t)
	if problems := checkPasses([]*pass{a, b}, nil); len(problems) != 0 || b.cells[0].err != nil {
		t.Fatalf("identical passes disagree: %v %v", problems, b.cells[0].err)
	}
	b.cells[0].digest = "ffffffffffffffff"
	checkPasses([]*pass{a, b}, nil)
	if b.cells[0].err == nil {
		t.Errorf("a pass whose digest differs from the first was not failed")
	}
}

func TestPanickingCellFails(t *testing.T) {
	c := runCell("x", harness.Job{Name: "boom", Run: func() harness.Output { panic("boom") }})
	if c.err == nil || !strings.Contains(c.err.Error(), "boom") {
		t.Errorf("panic not recovered as the cell's error: %v", c.err)
	}
}

func TestParseVmHWM(t *testing.T) {
	got, err := parseVmHWM([]byte("Name:\tperfbench\nVmPeak:\t  800000 kB\nVmHWM:\t   10240 kB\nVmRSS:\t    9000 kB\n"))
	if err != nil || got != 10240*1024 {
		t.Errorf("parseVmHWM = %v, %v; want %d", got, err, 10240*1024)
	}
	if _, err := parseVmHWM([]byte("Name:\tx\n")); err == nil {
		t.Errorf("missing VmHWM parsed without error")
	}
	if live, err := peakRSSBytes(); err != nil || live <= 0 {
		t.Errorf("peakRSSBytes = %v, %v", live, err)
	}
}

// TestGaugeCountsReferenceLoops runs the reference loop itself as the
// measured work: the gauge must read about one reference loop per
// loop, wall and CPU, and leave its own probes out of the times.
func TestGaugeCountsReferenceLoops(t *testing.T) {
	g := startGauge()
	start := time.Now()
	for i := 0; i < 3; i++ {
		spin(probeLoops)
		g.tick()
	}
	g.probe()
	elapsed := time.Since(start)
	if g.wallRef < 2.4 || g.wallRef > 3.6 || g.cpuRef < 2.4 || g.cpuRef > 3.6 {
		t.Errorf("gauge read %.2f ref wall, %.2f ref CPU for 3 reference loops", g.wallRef, g.cpuRef)
	}
	if g.wall <= 0 || g.wall >= elapsed {
		t.Errorf("gauge wall %v, not inside the %v elapsed less the probes", g.wall, elapsed)
	}
}
