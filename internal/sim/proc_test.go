package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestProcPanicSurfacesFromRun checks that a panic inside a proc body,
// after the proc has parked and been resumed once, re-raises from Run
// wrapped with the proc's identity, and that the proc counts as exited.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	e := NewEngine(1)
	p := e.Spawn("boom", func(p *Proc) {
		p.Sleep(Millisecond)
		panic("kaput")
	})
	e.Ready(p)
	defer func() {
		r := recover()
		err, ok := r.(error)
		if !ok {
			t.Fatalf("recovered %T %v, want an error", r, r)
		}
		if want := "sim: panic in proc 1 (boom): kaput\n"; !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("panic = %q, want prefix %q", err.Error(), want)
		}
		if !strings.Contains(err.Error(), "proc_test.go") {
			t.Errorf("panic carries no stack of the proc body:\n%s", err)
		}
		if p.State() != ProcExited || e.Live() != 0 || e.Current() != nil {
			t.Errorf("after panic: state %v, live %d, current %v", p.State(), e.Live(), e.Current())
		}
	}()
	e.RunAll()
	t.Fatal("Run returned instead of re-raising the proc panic")
}

// TestProcPanicDuringKillAll checks that a panic raised while a killed
// proc unwinds (from one of its deferred functions) re-raises from
// KillAll, not only from Run.
func TestProcPanicDuringKillAll(t *testing.T) {
	e := NewEngine(1)
	p := e.Spawn("teardown", func(p *Proc) {
		defer func() {
			if r := recover(); r != nil {
				panic(fmt.Sprintf("cleanup failed after %v", r))
			}
		}()
		p.Park()
	})
	e.Ready(p)
	if _, err := e.RunAll(); err == nil {
		t.Fatal("parked proc not reported as deadlock")
	}
	defer func() {
		r := recover()
		if r == nil || !strings.HasPrefix(fmt.Sprint(r), "sim: panic in proc 1 (teardown): cleanup failed") {
			t.Fatalf("KillAll panic = %v", r)
		}
	}()
	e.KillAll()
	t.Fatal("KillAll returned instead of re-raising the proc panic")
}

// waitGoroutines polls until runtime.NumGoroutine drops to at most
// want, tolerating goroutines unrelated to the engine that are still
// winding down, and returns the last count.
func waitGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestProcsReleaseGoroutines checks that a proc holds host resources
// only while it lives: the goroutine count returns to its baseline both
// after procs exit normally and after KillAll tears down parked and
// never-started ones.
func TestProcsReleaseGoroutines(t *testing.T) {
	const n = 32
	base := waitGoroutines(runtime.NumGoroutine())

	e := NewEngine(1)
	for i := 0; i < n; i++ {
		p := e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) { p.Sleep(Duration(p.ID) * Microsecond) })
		e.Ready(p)
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got := waitGoroutines(base); got != base {
		t.Fatalf("goroutines after %d procs exited = %d, baseline %d", n, got, base)
	}

	e = NewEngine(1)
	for i := 0; i < n; i++ {
		p := e.Spawn(fmt.Sprintf("parked%d", i), func(p *Proc) { p.Park() })
		e.Ready(p)
		e.Spawn(fmt.Sprintf("unstarted%d", i), func(p *Proc) { t.Error("unstarted proc ran") })
	}
	if _, err := e.RunAll(); err == nil {
		t.Fatal("parked procs not reported as deadlock")
	}
	if got := runtime.NumGoroutine(); got < base+2*n {
		// Guards the check below against vacuity: if live procs held no
		// goroutine, a return to baseline would prove nothing.
		t.Fatalf("goroutines with %d live procs = %d, baseline %d", 2*n, got, base)
	}
	e.KillAll()
	if e.Live() != 0 {
		t.Fatalf("live after KillAll = %d", e.Live())
	}
	if got := waitGoroutines(base); got != base {
		t.Fatalf("goroutines after KillAll = %d, baseline %d", got, base)
	}
}

// TestSwitchesCountsDispatches checks the profiling counter: one switch
// per dispatch of a live proc, none for resumes that find the proc
// already exited.
func TestSwitchesCountsDispatches(t *testing.T) {
	e := NewEngine(1)
	p := e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(Millisecond)
		}
	})
	e.Ready(p)
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	// First run plus three wake-ups.
	if got := e.Switches(); got != 4 {
		t.Fatalf("switches = %d, want 4", got)
	}
	e.Ready(p) // exited: a no-op
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got := e.Switches(); got != 4 {
		t.Fatalf("switches after readying an exited proc = %d, want 4", got)
	}
}
