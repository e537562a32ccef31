package pdes

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

const look = 10 * sim.Millisecond

// newGroup builds a group of n shards with the test lookahead, all
// seeded identically.
func newGroup(n int) (*Group, []*Shard) {
	g := New(look)
	shards := make([]*Shard, n)
	for i := range shards {
		shards[i] = g.AddShard(sim.NewEngine(7))
	}
	return g, shards
}

func TestCrossShardDeliveryOrder(t *testing.T) {
	// Messages from several shards landing on shard 0 at identical and
	// distinct instants must fire in (at, sent, src, seq) order — the
	// sharded counterpart of the engine's (at, seq) contract.
	g, s := newGroup(3)
	var fired []string
	record := func(arg any) { fired = append(fired, arg.(string)) }

	at := sim.Time(0).Add(100 * sim.Millisecond)
	s[1].Engine().After(1*sim.Millisecond, func() {
		s[1].Send(s[0], at, record, "b-first")  // sent 1ms
		s[1].Send(s[0], at, record, "b-second") // sent 1ms, later seq
	})
	s[2].Engine().After(1*sim.Millisecond, func() {
		s[2].Send(s[0], at, record, "c-tie") // sent 1ms, src 2 > src 1
	})
	s[2].Engine().After(2*sim.Millisecond, func() {
		s[2].Send(s[0], at, record, "c-later-send")                            // sent 2ms
		s[2].Send(s[0], at.Add(-sim.Millisecond), record, "c-earlier-deliver") // earlier at wins overall
	})
	if _, err := g.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	want := []string{"c-earlier-deliver", "b-first", "b-second", "c-tie", "c-later-send"}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("delivery order %v, want %v", fired, want)
	}
}

func TestLookaheadViolationPanics(t *testing.T) {
	g, s := newGroup(2)
	s[1].Engine().After(sim.Millisecond, func() {
		// Delivery less than lookahead away: conservatively unsafe.
		s[1].Send(s[0], s[1].Now().Add(look/2), func(any) {}, nil)
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("lookahead violation not detected")
		}
		if !strings.Contains(fmt.Sprint(r), "violates lookahead") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	g.Run(sim.Forever)
}

func TestShardPanicReachesCoordinator(t *testing.T) {
	g, s := newGroup(3)
	s[2].Engine().After(sim.Millisecond, func() { panic("boom on shard 2") })
	// Give the other shards work in the same window so the parallel
	// fan-out path (not the single-active-shard inline path) runs.
	s[0].Engine().After(sim.Millisecond, func() {})
	s[1].Engine().After(sim.Millisecond, func() {})
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "boom on shard 2") {
			t.Fatalf("shard panic not propagated: %v", r)
		}
	}()
	g.Run(sim.Forever)
}

func TestDeadlockAcrossShards(t *testing.T) {
	g, s := newGroup(2)
	p := s[1].Engine().Spawn("stuck", func(p *sim.Proc) { p.Park() })
	s[1].Engine().Ready(p)
	s[0].Engine().After(sim.Millisecond, func() {}) // unrelated traffic elsewhere
	_, err := g.Run(sim.Forever)
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("deadlock not reported: %v", err)
	}
	if g.Live() != 1 {
		t.Fatalf("live = %d, want 1", g.Live())
	}
	g.KillAll()
	if g.Live() != 0 {
		t.Fatalf("live after KillAll = %d", g.Live())
	}
}

func TestHorizonLeavesQueuesIntact(t *testing.T) {
	g, s := newGroup(2)
	var fired int
	s[1].Engine().After(50*sim.Millisecond, func() { fired++ })
	end, hit, err := g.RunHorizon(20 * sim.Millisecond)
	if err != nil || !hit {
		t.Fatalf("end %v hit %v err %v", end, hit, err)
	}
	if fired != 0 {
		t.Fatal("event beyond horizon fired")
	}
	if got := g.Now(); got != sim.Time(0).Add(20*sim.Millisecond) {
		t.Fatalf("clocks at %v, want 20ms", got)
	}
	// A later unbounded Run picks the queue back up.
	if _, err := g.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d after resume", fired)
	}
}

// shardedPipeline runs M logical nodes spread over n shards: a client
// on shard 0 sends each node a request train; each node "serves" with a
// node-specific delay chain and replies; the client records completion
// instants. The recorded log must be identical for any shard count —
// the core shard-assignment-invariance property the cluster layer
// relies on.
func shardedPipeline(t *testing.T, shards int) []string {
	t.Helper()
	const nodes, reqs = 4, 6
	g, s := newGroup(shards)
	var log []string
	var completed int

	type node struct {
		sh   *Shard
		id   int
		busy sim.Time
	}
	ns := make([]*node, nodes)
	for i := range ns {
		ns[i] = &node{sh: s[i%shards], id: i}
	}

	// reply closes one request at the client (shard 0).
	reply := func(arg any) {
		log = append(log, fmt.Sprintf("%v %v", s[0].Now(), arg))
		completed++
	}
	// serve runs on the node's shard: FIFO queue with a deterministic
	// per-node service time, reply after lookahead.
	serve := func(arg any) {
		n := arg.(*node)
		now := n.sh.Now()
		if n.busy < now {
			n.busy = now
		}
		n.busy = n.busy.Add(sim.Duration(n.id+1) * 3 * sim.Millisecond)
		n.sh.Send(s[0], n.busy.Add(look), reply, fmt.Sprintf("node%d", n.id))
	}
	// The client fans the request train out round-robin, one request
	// per millisecond, each delivered exactly lookahead later.
	for r := 0; r < reqs; r++ {
		n := ns[r%nodes]
		s[0].Engine().AfterFunc(sim.Duration(r)*sim.Millisecond, func(arg any) {
			nd := arg.(*node)
			s[0].Send(nd.sh, s[0].Now().Add(look), serve, nd)
		}, n)
	}
	if _, err := g.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	if completed != reqs {
		t.Fatalf("completed %d of %d", completed, reqs)
	}
	return log
}

func TestShardCountInvariant(t *testing.T) {
	ref := shardedPipeline(t, 1)
	for _, n := range []int{2, 3, 4} {
		if got := shardedPipeline(t, n); !reflect.DeepEqual(got, ref) {
			t.Fatalf("%d shards diverged:\n%v\nwant\n%v", n, got, ref)
		}
	}
}

func TestEmptyGroupAndZeroLookahead(t *testing.T) {
	if end, err := New(look).Run(sim.Forever); end != 0 || err != nil {
		t.Fatalf("empty group run: %v, %v", end, err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero lookahead accepted")
		}
	}()
	New(0)
}

func TestWindowStats(t *testing.T) {
	g, s := newGroup(2)
	// A ping-pong across shards: each leg forces at least one more
	// conservative window.
	var hops int
	var bounce func(arg any)
	bounce = func(arg any) {
		hops++
		if hops >= 4 {
			return
		}
		from, to := s[hops%2], s[(hops+1)%2]
		from.Send(to, from.Engine().Now().Add(look), bounce, nil)
	}
	s[1].Engine().After(look, func() { s[1].Send(s[0], s[1].Engine().Now().Add(look), bounce, nil) })
	if _, err := g.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	ws := g.WindowStats()
	if ws.Windows <= 0 {
		t.Fatalf("windows = %d", ws.Windows)
	}
	if ws.WidthSum <= 0 {
		t.Fatalf("width sum = %v", ws.WidthSum)
	}
	if len(ws.ShardEvents) != 2 {
		t.Fatalf("shard events = %v", ws.ShardEvents)
	}
	var events uint64
	for _, n := range ws.ShardEvents {
		events += n
	}
	// 1 kickoff + 4 bounce deliveries fired across the group.
	if events != 5 {
		t.Fatalf("total events = %d, want 5", events)
	}
}

// shardedDenseTimers runs the wheel's fleet workload under the
// conservative-parallel coordinator: each logical node answers requests
// by scheduling a dense burst of short-horizon grid-aligned timers (the
// slice/quantum/arrival pattern the timing wheel absorbs), cancelling a
// deterministic third of them, and folding every fire instant into a
// node-local accumulator that is shipped back to shard 0 when the burst
// settles. Burst deltas deliberately straddle the lookahead window, so
// wheel-resident timers must survive RunWindow's park-at-window-edge
// clock jumps and keep NextEventTime (the safe-window input) exact.
// The recorded log must be identical for any shard count.
func shardedDenseTimers(t *testing.T, shards int) []string {
	t.Helper()
	const nodes, reqs, burst = 4, 3, 48
	const grid = 32768 * sim.Nanosecond
	g, s := newGroup(shards)
	var log []string

	type node struct {
		sh  *Shard
		id  int
		acc uint64
		out int // burst timers still pending
	}
	ns := make([]*node, nodes)
	for i := range ns {
		ns[i] = &node{sh: s[i%shards], id: i}
	}

	reply := func(arg any) {
		log = append(log, fmt.Sprintf("%v %v", s[0].Now(), arg))
	}
	// serve schedules the dense burst on the node's shard. Deltas span
	// sub-window grid instants up to a few multiples of the lookahead,
	// so some timers are still wheel-resident when the window closes.
	serve := func(arg any) {
		n := arg.(*node)
		eng := n.sh.Engine()
		for j := 0; j < burst; j++ {
			delta := sim.Duration(j%96+1)*grid + sim.Duration(j%5)*7*sim.Millisecond
			n.out++
			ev := eng.AfterFunc(delta, func(a any) {
				nd := a.(*node)
				nd.acc = nd.acc*1099511628211 + uint64(nd.sh.Now())
				nd.out--
				if nd.out == 0 {
					nd.sh.Send(s[0], nd.sh.Now().Add(look), reply,
						fmt.Sprintf("node%d acc%x", nd.id, nd.acc))
				}
			}, n)
			if j%3 == 2 {
				ev.Cancel()
				n.out--
			}
		}
	}
	for r := 0; r < reqs; r++ {
		n := ns[r%nodes]
		s[0].Engine().AfterFunc(sim.Duration(r)*5*sim.Millisecond, func(arg any) {
			nd := arg.(*node)
			s[0].Send(nd.sh, s[0].Now().Add(look), serve, nd)
		}, n)
	}
	if _, err := g.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	if len(log) != reqs {
		t.Fatalf("%d replies, want %d", len(log), reqs)
	}
	// The bursts must actually have exercised the wheel tier, not just
	// the heap: grid-scale deltas are well inside the level-0/1 horizon.
	var inserts uint64
	for _, sh := range g.Shards() {
		inserts += sh.Engine().WheelInserts()
	}
	if inserts == 0 {
		t.Fatal("dense burst never touched the timing wheel")
	}
	if ws := g.WindowStats(); ws.Windows < 2 {
		t.Fatalf("windows = %d, want the bursts to span several lockstep windows", ws.Windows)
	}
	return log
}

func TestDenseTimersShardCountInvariant(t *testing.T) {
	ref := shardedDenseTimers(t, 1)
	for _, n := range []int{2, 4} {
		if got := shardedDenseTimers(t, n); !reflect.DeepEqual(got, ref) {
			t.Fatalf("%d shards diverged:\n%v\nwant\n%v", n, got, ref)
		}
	}
}

// TestProcResumedInlineAndFromWorker drives one shard's proc through
// both ways the coordinator runs a window: inline on the coordinator's
// goroutine when only that shard has work, and on the shard's worker
// goroutine when the window fans out. The proc coroutine must resume
// correctly from either host goroutine and keep its virtual timeline;
// under -race this also checks that the barrier orders every resume.
func TestProcResumedInlineAndFromWorker(t *testing.T) {
	g, s := newGroup(2)
	const iters = 40
	var wakes []sim.Time
	var inline, fanout int
	var p *sim.Proc
	p = s[1].Engine().Spawn("walker", func(p *sim.Proc) {
		for i := 0; i < iters; i++ {
			wakes = append(wakes, s[1].Now())
			switch len(g.active) {
			case 1:
				inline++
			default:
				fanout++
			}
			if i == iters/2 {
				// Wait for a cross-shard wake-up instead of a timer.
				p.Park()
				continue
			}
			p.Sleep(sim.Millisecond)
		}
	})
	s[1].Engine().Ready(p)
	// Shard 0 is busy only from 15ms to 25ms, so earlier and later
	// windows hold shard 1 alone. At 20ms it wakes the parked proc.
	for ms := 15; ms <= 25; ms++ {
		s[0].Engine().After(sim.Duration(ms)*sim.Millisecond, func() {})
	}
	s[0].Engine().After(20*sim.Millisecond, func() {
		s[0].Send(s[1], s[0].Now().Add(look), func(any) { s[1].Engine().Ready(p) }, nil)
	})
	if _, err := g.Run(sim.Forever); err != nil {
		t.Fatal(err)
	}
	if p.State() != sim.ProcExited || g.Live() != 0 {
		t.Fatalf("proc %v, live %d", p.State(), g.Live())
	}
	if inline == 0 || fanout == 0 {
		t.Fatalf("proc resumed %d times inline and %d from a worker; want both", inline, fanout)
	}
	if len(wakes) != iters {
		t.Fatalf("%d wakes, want %d", len(wakes), iters)
	}
	for i, at := range wakes {
		want := sim.Time(0).Add(sim.Duration(i) * sim.Millisecond)
		if i > iters/2 {
			// The park at iters/2 ms ends at 20ms + lookahead.
			want = sim.Time(0).Add(20*sim.Millisecond + look + sim.Duration(i-iters/2-1)*sim.Millisecond)
		}
		if at != want {
			t.Fatalf("wake %d at %v, want %v", i, at, want)
		}
	}
	// One dispatch per recorded wake, plus the one after the last
	// sleep, in which the proc returns.
	if got := s[1].Engine().Switches(); got != iters+1 {
		t.Fatalf("switches = %d, want %d", got, iters+1)
	}
}
