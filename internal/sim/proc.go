//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// ProcState describes the lifecycle of a proc.
type ProcState int

// Proc lifecycle states.
const (
	ProcCreated ProcState = iota // spawned, never run
	ProcRunning                  // currently executing
	ProcParked                   // waiting for Ready
	ProcExited                   // function returned
)

func (s ProcState) String() string {
	switch s {
	case ProcCreated:
		return "created"
	case ProcRunning:
		return "running"
	case ProcParked:
		return "parked"
	case ProcExited:
		return "exited"
	}
	return "unknown"
}

// Proc is a simulated activity: a coroutine that runs only when the
// engine hands it control, and that returns control by parking or
// exiting. All simulated threads, interrupt handlers with complex logic,
// and workload drivers are procs.
type Proc struct {
	ID   int
	Name string

	// Data is an upper-layer binding slot (e.g. the kernel thread driving
	// this proc). It replaces side-table map lookups on hot paths; the
	// engine itself never touches it.
	Data any

	eng *Engine
	// next resumes the proc's coroutine from the engine and returns when
	// the proc parks or exits; yield, set on the proc's first run, is the
	// proc-side half that hands control back.
	next    func() (struct{}, bool)
	yield   func(struct{}) bool
	state   ProcState
	pending bool // a resume event is queued
	killed  bool
}

// killSentinel unwinds a killed proc's coroutine from inside Park.
type killSentinel struct{}

// State returns the proc's lifecycle state.
func (p *Proc) State() ProcState { return p.state }

func (p *Proc) String() string { return fmt.Sprintf("proc %d (%s)", p.ID, p.Name) }

// Spawn creates a proc running fn. The proc does not start until Ready is
// called (typically immediately by the caller, or by a scheduler model when
// it dispatches the underlying thread).
//
// The proc body runs as an iter.Pull coroutine: the engine resumes it
// with next and the proc hands control back with yield, each a direct
// switch that never passes through the Go scheduler. Exactly one of the
// engine and its procs executes at any instant, so no host ordering can
// leak into simulation output. A panic in fn is wrapped with the proc's
// identity and stack and re-raised from the engine's Run.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	e.nextPID++
	p := &Proc{
		ID:    e.nextPID,
		Name:  name,
		eng:   e,
		state: ProcCreated,
	}
	e.procs = append(e.procs, p)
	e.live++
	//lint:allow goleak(the engine's proc coroutine: resumed only by Engine.dispatch, so it runs strictly one-at-a-time under engine control)
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer p.exit()
		if p.killed {
			return
		}
		fn(p)
	})
	return p
}

// exit is the proc coroutine's epilogue. It runs as fn returns or
// unwinds and marks the proc exited; control then returns to the
// engine's next call. A kill unwinding ends here; any other panic is
// re-raised wrapped, and next re-raises it in the engine in turn.
func (p *Proc) exit() {
	r := recover()
	e := p.eng
	p.state = ProcExited
	// e.procs keeps p until the engine is dropped; release the
	// coroutine's closures now.
	p.next, p.yield = nil, nil
	e.live--
	e.cur = nil
	if r != nil {
		if _, isKill := r.(killSentinel); !isKill {
			panic(fmt.Errorf("sim: panic in %v: %v\n%s", p, r, debug.Stack()))
		}
	}
}

// dispatchProc is the resume-event callback: a single package-level
// function shared by every Ready call, so readying a proc allocates no
// closure.
func dispatchProc(arg any) {
	p := arg.(*Proc)
	p.eng.dispatch(p)
}

// readyProc is the sleep-expiry callback shared by every Proc.Sleep.
func readyProc(arg any) {
	p := arg.(*Proc)
	p.eng.Ready(p)
}

// Ready schedules p to resume at the current virtual time (after currently
// queued same-time events). Calling Ready on an exited or already-readied
// proc is a no-op. Calling it on the currently running proc is allowed: the
// resume event fires only once the proc has parked (control returns to the
// engine), which lets scheduler models re-dispatch a thread that is mid-way
// through voluntarily going off-CPU.
func (e *Engine) Ready(p *Proc) {
	if p.state == ProcExited || p.pending {
		return
	}
	p.pending = true
	e.AtFunc(e.now, dispatchProc, p)
}

// dispatch transfers control to p and returns when p parks or exits.
func (e *Engine) dispatch(p *Proc) {
	p.pending = false
	if p.state == ProcExited {
		return
	}
	if p.state == ProcRunning {
		panic(fmt.Sprintf("sim: resume event fired while %v still running", p))
	}
	if e.cur != nil {
		panic(fmt.Sprintf("sim: dispatch of %v while %v is running", p, e.cur))
	}
	e.cur = p
	p.state = ProcRunning
	e.switches++
	p.next()
}

// Park suspends the calling proc until Ready is invoked on it. It must be
// called from within the proc's own body.
func (p *Proc) Park() {
	e := p.eng
	if e.cur != p {
		panic(fmt.Sprintf("sim: Park called on %v from outside its body", p))
	}
	p.state = ProcParked
	e.cur = nil
	p.yield(struct{}{})
	if p.killed {
		panic(killSentinel{})
	}
}

// Kill terminates a proc: the next time it would resume, its coroutine
// unwinds (running deferred functions) instead of continuing. Used to
// model process exit tearing down its remaining threads. Killing the
// currently running proc or an exited proc is not allowed / a no-op.
func (e *Engine) Kill(p *Proc) {
	if p.state == ProcExited || p.killed {
		return
	}
	if p.state == ProcRunning {
		panic(fmt.Sprintf("sim: Kill of running %v", p))
	}
	p.killed = true
	e.Ready(p)
}

// KillAll terminates every live proc and drains the resulting unwinding,
// so every proc coroutine finishes. Used to abandon a timed-out
// experiment without leaking coroutines. The event queue may still hold
// (cancelled or inert) timers afterwards; the engine should be discarded.
func (e *Engine) KillAll() {
	for _, p := range e.procs {
		if p.state != ProcExited && p.state != ProcRunning {
			e.Kill(p)
		}
	}
	// Drain only the kill resumes: run until no live procs remain or
	// nothing more fires.
	for e.live > 0 {
		ev := e.peekNext()
		if ev == nil {
			break
		}
		e.fire(ev)
	}
}

// Current returns the proc currently executing, or nil when the engine
// itself (an event callback) is running.
func (e *Engine) Current() *Proc { return e.cur }

// Sleep parks the calling proc for d of virtual time. This is a low-level
// helper for drivers; simulated threads should sleep via their kernel.
func (p *Proc) Sleep(d Duration) {
	p.eng.AfterFunc(d, readyProc, p)
	p.Park()
}
