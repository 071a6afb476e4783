package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// traceEntry records one fired event of the randomized workload: the full
// (time, seq) order of a shard plus the payload that fired.
type traceEntry struct {
	at   Time
	seq  uint64
	a, b int64
}

// hopCtx is the randomized workload's per-shard model: every event hashes
// its own coordinates to decide, deterministically, how many local and
// remote follow-up events to schedule. Behaviour is a pure function of the
// event, never of execution order, so any correct executor must fire the
// same sequences.
type hopCtx struct {
	shard *Shard
	peers []*Shard
	ctxs  []Ctx // peer context handles, indexed by shard id
	la    []Time
	trace []traceEntry
}

// The test kinds are registered in init (not var initializers) because the
// handlers schedule their own kinds.
var kindHop, kindSelfHop Kind

func init() {
	kindHop = RegisterKind("sim.testHop", hopHandler)
	kindSelfHop = RegisterKind("sim.testSelfHop", selfHopHandler)
}

func hopHandler(ctx any, a, b int64) {
	h := ctx.(*hopCtx)
	s := h.shard
	h.trace = append(h.trace, traceEntry{at: s.Now(), seq: s.Fired(), a: a, b: b})
	if b <= 0 {
		return // hop budget exhausted
	}
	r := mix(uint64(s.Now()) ^ uint64(a)<<17 ^ uint64(s.ID())<<47 ^ uint64(b)<<33)
	for i := uint64(0); i < r%3; i++ {
		r = mix(r)
		s.Post(s.Now()+Time(r%5000), kindHop, Ctx(0), int64(r>>32), b-1)
	}
	r = mix(r)
	if r%4 == 0 {
		r = mix(r)
		dst := h.peers[r%uint64(len(h.peers))]
		delay := h.la[s.ID()] + Time(mix(r)%7000)
		s.PostRemote(dst, s.Now()+delay, kindHop, h.ctxs[dst.ID()], int64(r>>32), b-1)
	}
}

// mix is splitmix64's finalizer: a deterministic hash driving the workload.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// runRandomWorkload builds nShards domains with seeded lookaheads and
// initial events, executes with the given worker count, and returns every
// shard's trace.
func runRandomWorkload(t *testing.T, seed int64, nShards, workers int) [][]traceEntry {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pe := NewParallel(workers)
	hops := make([]*hopCtx, nShards)
	la := make([]Time, nShards)
	for i := range la {
		la[i] = Time(1 + rng.Intn(2000))
	}
	for i := 0; i < nShards; i++ {
		s := pe.NewShard(fmt.Sprintf("d%d", i), la[i])
		hops[i] = &hopCtx{shard: s, la: la}
		if c := s.Bind(hops[i]); c != 0 {
			t.Fatalf("hop context bound at %d, want 0", c)
		}
	}
	for _, h := range hops {
		for j := range hops {
			h.peers = append(h.peers, hops[j].shard)
			h.ctxs = append(h.ctxs, Ctx(0))
		}
		// Seed events: a few initial hops per shard with a bounded budget.
		for k := 0; k < 3+rng.Intn(4); k++ {
			h.shard.Post(Time(rng.Intn(3000)), kindHop, Ctx(0), rng.Int63(), int64(6+rng.Intn(5)))
		}
	}
	pe.Run()
	traces := make([][]traceEntry, nShards)
	for i, h := range hops {
		traces[i] = h.trace
	}
	return traces
}

// TestShardMergeOrderProperty is the shard merge-order property test:
// across randomized cross-domain workloads, the parallel executor fires
// exactly the (time, seq) event sequences of the serial executor, shard by
// shard.
func TestShardMergeOrderProperty(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		nShards := 2 + int(seed)%5
		serial := runRandomWorkload(t, seed, nShards, 1)
		for _, workers := range []int{2, 8} {
			parallel := runRandomWorkload(t, seed, nShards, workers)
			for d := range serial {
				if !reflect.DeepEqual(serial[d], parallel[d]) {
					t.Fatalf("seed %d workers %d: shard %d fired a different (time,seq) sequence\nserial:   %d events\nparallel: %d events",
						seed, workers, d, len(serial[d]), len(parallel[d]))
				}
			}
		}
	}
}

// treeRec is one fired event of TestShardSingleMatchesEngine's workload.
type treeRec struct {
	at Time
	a  int64
}

// tree is TestShardSingleMatchesEngine's model: an event of depth d > 0
// fans out into a depth d-1 and a depth 0 event, 100*d picoseconds later.
type tree struct {
	eng   *Engine
	trace []treeRec
}

var kindTree Kind

func init() {
	kindTree = RegisterKind("sim.testTree", func(ctx any, depth, _ int64) {
		tr := ctx.(*tree)
		now := tr.eng.Now()
		tr.trace = append(tr.trace, treeRec{at: now, a: depth})
		if depth > 0 {
			tr.eng.Post(now+Time(100*depth), kindTree, 0, depth-1, 0)
			tr.eng.Post(now+Time(100*depth), kindTree, 0, 0, 0)
		}
	})
}

// seedTree binds a tree model as context 0 of eng and posts its roots.
func seedTree(eng *Engine) *tree {
	tr := &tree{eng: eng}
	eng.Bind(tr)
	eng.Post(5, kindTree, 0, 4, 0)
	eng.Post(5, kindTree, 0, 2, 0)
	eng.Post(900, kindTree, 0, 1, 0)
	return tr
}

// TestShardSingleMatchesEngine checks that a one-shard ParallelEngine is
// observationally identical to a plain Engine: same firing sequence, same
// makespan, even though execution is chopped into windows.
func TestShardSingleMatchesEngine(t *testing.T) {
	eng := New()
	plain := seedTree(eng)
	plainEnd := eng.Run()

	pe := NewParallel(4)
	s := pe.NewShard("solo", 50)
	sharded := seedTree(&s.Engine)
	shardedEnd := pe.Run()

	if !reflect.DeepEqual(plain.trace, sharded.trace) {
		t.Fatalf("sharded single-domain trace differs from plain engine:\nplain:   %v\nsharded: %v", plain.trace, sharded.trace)
	}
	if plainEnd != shardedEnd {
		t.Fatalf("makespan: plain %v, sharded %v", plainEnd, shardedEnd)
	}
	if pe.Windows() == 0 {
		t.Fatal("expected at least one synchronization window")
	}
}

// TestShardDeterministicWindows checks the window count is a model
// property, not an executor property.
func TestShardDeterministicWindows(t *testing.T) {
	count := func(workers int) uint64 {
		pe := NewParallel(workers)
		a := pe.NewShard("a", 100)
		b := pe.NewShard("b", 100)
		ha := &hopCtx{shard: a}
		hb := &hopCtx{shard: b}
		ha.peers = []*Shard{a, b}
		hb.peers = []*Shard{a, b}
		ha.la = []Time{100, 100}
		hb.la = ha.la
		ha.ctxs = []Ctx{a.Bind(ha), b.Bind(hb)}
		hb.ctxs = ha.ctxs
		a.Post(0, kindHop, Ctx(0), 7, 9)
		b.Post(3, kindHop, Ctx(0), 11, 9)
		pe.Run()
		return pe.Windows()
	}
	if w1, w4 := count(1), count(4); w1 != w4 || w1 == 0 {
		t.Fatalf("window count depends on executor: serial %d, parallel %d", w1, w4)
	}
}

// violator posts a cross-shard event only 1 tick ahead although its
// shard declared a lookahead of 1000.
type violator struct {
	from, to *Shard
	toCtx    Ctx
}

var kindViolate = RegisterKind("sim.testViolate", func(ctx any, _, _ int64) {
	v := ctx.(*violator)
	v.from.PostRemote(v.to, v.from.Now()+1, kindRecord, v.toCtx, 0, 0)
})

// TestShardLookaheadViolationPanics checks the protocol guard: posting a
// cross-shard event inside the current window is a model bug and must not
// be silently reordered.
func TestShardLookaheadViolationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected lookahead-violation panic")
		}
	}()
	pe := NewParallel(1)
	a := pe.NewShard("a", 1000)
	b := pe.NewShard("b", 1000)
	v := &violator{from: a, to: b, toCtx: b.Bind(&recorder{eng: &b.Engine})}
	a.Post(500, kindViolate, a.Bind(v), 0, 0)
	pe.Run()
}

// TestShardZeroLookaheadPanics checks that unsynchronizable shards are
// rejected at construction.
func TestShardZeroLookaheadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected zero-lookahead panic")
		}
	}()
	NewParallel(1).NewShard("bad", 0)
}

// selfCtx drives TestShardRemoteToSelf's chain of self-posts.
type selfCtx struct {
	shard *Shard
	fired bool
}

func selfHopHandler(ctx any, a, _ int64) {
	c := ctx.(*selfCtx)
	if a > 0 {
		c.shard.PostRemote(c.shard, c.shard.Now()+1, kindSelfHop, Ctx(0), a-1, 0)
		return
	}
	c.fired = true
}

// TestShardRemoteToSelf checks self-posts bypass the mailbox (they are
// ordinary local events, exempt from the lookahead constraint).
func TestShardRemoteToSelf(t *testing.T) {
	pe := NewParallel(1)
	a := pe.NewShard("a", InfiniteLookahead)
	sc := &selfCtx{shard: a}
	if c := a.Bind(sc); c != 0 {
		t.Fatalf("context bound at %d, want 0", c)
	}
	a.Post(10, kindSelfHop, Ctx(0), 3, 0)
	pe.Run()
	if !sc.fired {
		t.Fatal("self-post chain never completed")
	}
}

// pinger bounces one event between two shards: every hop is a cross-shard
// post exactly one lookahead ahead, so each hop is one window.
type pinger struct {
	self, peer *Shard
}

var kindPing Kind

func init() {
	kindPing = RegisterKind("sim.testPing", func(ctx any, hops, _ int64) {
		p := ctx.(*pinger)
		if hops > 0 {
			p.self.PostRemote(p.peer, p.self.Now()+100, kindPing, 0, hops-1, 0)
		}
	})
}

// TestParallelWindowsDoNotAllocate checks that the parallel executor's
// per-window dispatch is allocation-free: the allocations of a width-2 Run
// are the same for 10 windows and for 1000.
func TestParallelWindowsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	allocs := func(hops int64) (float64, uint64) {
		pe := NewParallel(2)
		a := pe.NewShard("a", 100)
		b := pe.NewShard("b", 100)
		// The widest buckets keep every run in bucket storage the
		// warm-up run already grew.
		a.SetEventSpacing(1 << calShiftMax)
		b.SetEventSpacing(1 << calShiftMax)
		a.Bind(&pinger{self: a, peer: b})
		b.Bind(&pinger{self: b, peer: a})
		var windows uint64
		n := testing.AllocsPerRun(20, func() {
			start := a.Now() + 1
			before := pe.Windows()
			a.Post(start, kindPing, 0, hops, 0)
			pe.Run()
			windows = pe.Windows() - before
		})
		return n, windows
	}
	few, fewWindows := allocs(10)
	many, manyWindows := allocs(1000)
	if manyWindows < 100*fewWindows/2 {
		t.Fatalf("workload ran %d and %d windows; want ~100x more in the long run", fewWindows, manyWindows)
	}
	if many > few {
		t.Fatalf("width-2 Run allocates %v over %d windows but %v over %d: per-window allocation", few, fewWindows, many, manyWindows)
	}
}
