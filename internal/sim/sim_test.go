package sim

import (
	"math/rand"
	"slices"
	"testing"
)

func TestTimeUnits(t *testing.T) {
	if Second != 1e12*Picosecond {
		t.Fatalf("Second = %d ps", int64(Second))
	}
	if got := (2500 * Nanosecond).Microseconds(); got != 2.5 {
		t.Fatalf("2500ns = %vus, want 2.5", got)
	}
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Fatalf("FromSeconds(1.5) = %v", got)
	}
	if got := FromNanoseconds(81.92); got != Time(81920) {
		t.Fatalf("FromNanoseconds(81.92) = %d ps", int64(got))
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{1500 * Nanosecond, "1.500us"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d ps -> %q, want %q", int64(c.in), got, c.want)
		}
	}
}

// recorder is the typed-event context of the engine tests: every event
// fired through it appends its a argument to fired.
type recorder struct {
	eng   *Engine
	fired []int64
}

// Test kinds on a *recorder context:
//   - kindRecord records a;
//   - kindSpawn records a and, when b is nonzero, posts kindRecord(b) at
//     the current time;
//   - kindChain records b and, while b > 1, reposts itself a picoseconds
//     later with b-1.
var kindRecord, kindSpawn, kindChain Kind

func init() {
	kindRecord = RegisterKind("sim.testRecord", func(ctx any, a, _ int64) {
		r := ctx.(*recorder)
		r.fired = append(r.fired, a)
	})
	kindSpawn = RegisterKind("sim.testSpawn", func(ctx any, a, b int64) {
		r := ctx.(*recorder)
		r.fired = append(r.fired, a)
		if b != 0 {
			r.eng.Post(r.eng.Now(), kindRecord, 0, b, 0)
		}
	})
	kindChain = RegisterKind("sim.testChain", func(ctx any, a, b int64) {
		r := ctx.(*recorder)
		r.fired = append(r.fired, b)
		if b > 1 {
			r.eng.Post(r.eng.Now()+Time(a), kindChain, 0, a, b-1)
		}
	})
}

// newRecorder returns an engine whose context handle 0 is a recorder.
func newRecorder() (*Engine, *recorder) {
	e := New()
	r := &recorder{eng: e}
	e.Bind(r)
	return e, r
}

func TestEngineOrdering(t *testing.T) {
	e, r := newRecorder()
	e.Post(30, kindRecord, 0, 3, 0)
	e.Post(10, kindRecord, 0, 1, 0)
	e.Post(20, kindRecord, 0, 2, 0)
	end := e.Run()
	if end != 30 {
		t.Fatalf("end = %v, want 30ps", int64(end))
	}
	if !slices.Equal(r.fired, []int64{1, 2, 3}) {
		t.Fatalf("order = %v", r.fired)
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e, r := newRecorder()
	for i := 0; i < 100; i++ {
		e.Post(42, kindRecord, 0, int64(i), 0)
	}
	e.Run()
	for i, v := range r.fired {
		if v != int64(i) {
			t.Fatalf("tie-broken order[%d] = %d", i, v)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e, r := newRecorder()
	e.Post(7, kindChain, 0, 7, 5)
	end := e.Run()
	if len(r.fired) != 5 {
		t.Fatalf("hits = %d", len(r.fired))
	}
	if end != 35 {
		t.Fatalf("end = %d", int64(end))
	}
	if e.Fired() != 5 {
		t.Fatalf("fired = %d", e.Fired())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e, r := newRecorder()
	e.Post(10, kindRecord, 0, 1, 0)
	e.Post(20, kindRecord, 0, 2, 0)
	e.Post(30, kindRecord, 0, 3, 0)
	e.RunUntil(20)
	if len(r.fired) != 2 {
		t.Fatalf("ran = %d, want 2", len(r.fired))
	}
	if e.Now() != 20 {
		t.Fatalf("now = %v", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d", e.Pending())
	}
	e.Run()
	if len(r.fired) != 3 {
		t.Fatalf("ran = %d, want 3", len(r.fired))
	}
}

// TestEngineRunUntilDeadlineDrain is the regression test for the queue
// draining exactly at the deadline: events at the deadline fire (including
// ones they schedule at the same timestamp, in seq order), the clock rests
// exactly at the deadline, and a repeated RunUntil with the same deadline
// is a no-op that still accepts new same-time work.
func TestEngineRunUntilDeadlineDrain(t *testing.T) {
	e, r := newRecorder()
	e.Post(10, kindRecord, 0, 1, 0)
	// Event 2 posts event 3 at the deadline while executing a deadline
	// event: it must still run within this RunUntil, after its scheduler
	// (seq order).
	e.Post(20, kindSpawn, 0, 2, 3)
	if end := e.RunUntil(20); end != 20 {
		t.Fatalf("end = %v, want 20", int64(end))
	}
	if !slices.Equal(r.fired, []int64{1, 2, 3}) {
		t.Fatalf("fired = %v", r.fired)
	}
	if e.Now() != 20 || e.Pending() != 0 {
		t.Fatalf("now = %v pending = %d", e.Now(), e.Pending())
	}
	if end := e.RunUntil(20); end != 20 || len(r.fired) != 3 {
		t.Fatalf("second RunUntil: end = %v fired = %v", int64(end), r.fired)
	}
	// The clock sits exactly at the deadline, so scheduling more work at
	// the deadline is legal and a further RunUntil picks it up.
	e.Post(20, kindRecord, 0, 4, 0)
	if end := e.RunUntil(20); end != 20 || !slices.Equal(r.fired, []int64{1, 2, 3, 4}) {
		t.Fatalf("third RunUntil: end = %v fired = %v", int64(end), r.fired)
	}
}

// TestEngineRunUntilAdvancesPastLastEvent: when the queue drains before
// the deadline, the clock still advances to the deadline; when events
// remain beyond it, they stay queued.
func TestEngineRunUntilAdvancesPastLastEvent(t *testing.T) {
	e, r := newRecorder()
	e.Post(5, kindRecord, 0, 1, 0)
	e.Post(30, kindRecord, 0, 2, 0)
	if end := e.RunUntil(20); end != 20 || len(r.fired) != 1 {
		t.Fatalf("end = %v ran = %d", int64(end), len(r.fired))
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d", e.Pending())
	}
	if end := e.Run(); end != 30 || len(r.fired) != 2 {
		t.Fatalf("end = %v ran = %d", int64(end), len(r.fired))
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e, _ := newRecorder()
	e.Post(100, kindRecord, 0, 1, 0)
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Post(50, kindRecord, 0, 2, 0)
}

// spawner drives TestEngineMonotoneClock: every event checks the clock
// and, until the budget is spent, posts a follow-up a random delay later.
type spawner struct {
	t     *testing.T
	eng   *Engine
	rng   *rand.Rand
	last  Time
	count int
}

var kindRandomSpawn Kind

func init() {
	kindRandomSpawn = RegisterKind("sim.testRandomSpawn", func(ctx any, _, _ int64) {
		s := ctx.(*spawner)
		if s.eng.Now() < s.last {
			s.t.Fatalf("clock went backwards: %v after %v", s.eng.Now(), s.last)
		}
		s.last = s.eng.Now()
		s.count++
		if s.count < 2000 {
			s.eng.Post(s.eng.Now()+Time(s.rng.Intn(100)), kindRandomSpawn, 0, 0, 0)
		}
	})
}

func TestEngineMonotoneClock(t *testing.T) {
	e := New()
	s := &spawner{t: t, eng: e, rng: rand.New(rand.NewSource(1)), last: -1}
	e.Bind(s)
	for i := 0; i < 10; i++ {
		e.Post(Time(s.rng.Intn(1000)), kindRandomSpawn, 0, 0, 0)
	}
	e.Run()
	if s.count < 2000 {
		t.Fatalf("fired %d events, want at least 2000", s.count)
	}
}

func TestServerSerializes(t *testing.T) {
	var s Server
	st, en := s.Acquire(0, 100)
	if st != 0 || en != 100 {
		t.Fatalf("first job [%d,%d]", int64(st), int64(en))
	}
	st, en = s.Acquire(10, 50) // arrives while busy: queued
	if st != 100 || en != 150 {
		t.Fatalf("second job [%d,%d], want [100,150]", int64(st), int64(en))
	}
	st, en = s.Acquire(1000, 5) // arrives idle
	if st != 1000 || en != 1005 {
		t.Fatalf("third job [%d,%d]", int64(st), int64(en))
	}
	if s.Jobs() != 3 || s.BusyTotal() != 155 {
		t.Fatalf("jobs=%d busy=%d", s.Jobs(), int64(s.BusyTotal()))
	}
}

func TestServerUtilization(t *testing.T) {
	var s Server
	s.Acquire(0, 250)
	s.Acquire(0, 250)
	if u := s.Utilization(1000); u != 0.5 {
		t.Fatalf("utilization = %v", u)
	}
	if u := s.Utilization(0); u != 0 {
		t.Fatalf("zero-horizon utilization = %v", u)
	}
}

func TestMultiServerParallelism(t *testing.T) {
	m := NewMultiServer(2)
	_, e1 := m.Acquire(0, 100)
	_, e2 := m.Acquire(0, 100)
	if e1 != 100 || e2 != 100 {
		t.Fatalf("two servers should run in parallel: %d %d", int64(e1), int64(e2))
	}
	st, en := m.Acquire(0, 100) // third job queues behind the earliest
	if st != 100 || en != 200 {
		t.Fatalf("third job [%d,%d]", int64(st), int64(en))
	}
	if m.Servers() != 2 || m.Jobs() != 3 || m.BusyTotal() != 300 {
		t.Fatalf("servers=%d jobs=%d busy=%d", m.Servers(), m.Jobs(), int64(m.BusyTotal()))
	}
}

func TestMultiServerPicksEarliest(t *testing.T) {
	m := NewMultiServer(3)
	m.Acquire(0, 300)
	m.Acquire(0, 100)
	m.Acquire(0, 200)
	st, _ := m.Acquire(0, 10)
	if st != 100 {
		t.Fatalf("start = %d, want 100 (earliest-free server)", int64(st))
	}
}

func TestMultiServerInvalidSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMultiServer(0) did not panic")
		}
	}()
	NewMultiServer(0)
}
