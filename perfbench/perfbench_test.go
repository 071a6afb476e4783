package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"slices"
	"testing"
	"time"
)

func TestTailRankLeavesTenBeyond(t *testing.T) {
	for _, q := range []int{500, 900, 940, 950, 990} {
		n := minOps(q)
		if got := beyond(n, q); got < minBeyond {
			t.Errorf("p%d: minOps %d leaves %d beyond, want >= %d", q, n, got, minBeyond)
		}
		if got := beyond(n-1, q); got >= minBeyond {
			t.Errorf("p%d: minOps %d is not the smallest; %d samples already leave %d beyond", q, n, n-1, got)
		}
		// Once enough samples are in, more never break the rule.
		for m := n; m < n+5000; m++ {
			if beyond(m, q) < minBeyond {
				t.Fatalf("p%d: %d samples leave %d beyond", q, m, beyond(m, q))
			}
		}
	}
	if got := minOps(950); got != 200 {
		t.Errorf("minOps(p95) = %d, want 200", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 200..1, unsorted
	}
	if got := percentile(xs, 950); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190", got)
	}
	if got := beyond(200, 950); got != 10 {
		t.Errorf("beyond(200, p95) = %d, want 10", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestTailPercentileFixedPerWorkload(t *testing.T) {
	for _, wl := range workloads {
		q, ok := tailPermille[wl]
		if !ok || q <= 500 || q >= 1000 {
			t.Errorf("workload %s: tail percentile %d per mille", wl, q)
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	draw := func(seed int64) ([]byte, []int, [][]byte) {
		in := newInputs(seed)
		d := newDeck(41, in.rng)
		var order []int
		var wins [][]byte
		for i := 0; i < 100; i++ {
			order = append(order, d.next())
			wins = append(wins, in.window(int64(1+i*977)))
		}
		return in.pool, order, wins
	}
	p1, o1, w1 := draw(7)
	p2, o2, w2 := draw(7)
	if !bytes.Equal(p1, p2) || !slices.Equal(o1, o2) {
		t.Fatal("same seed gave different pools or decks")
	}
	for i := range w1 {
		if !bytes.Equal(w1[i], w2[i]) {
			t.Fatalf("same seed gave different window %d", i)
		}
	}
	p3, o3, _ := draw(8)
	if bytes.Equal(p1, p3) || slices.Equal(o1, o3) {
		t.Fatal("different seeds gave the same inputs")
	}
}

func TestDeckDealsWholeRounds(t *testing.T) {
	in := newInputs(3)
	d := newDeck(41, in.rng)
	for round := 0; round < 5; round++ {
		seen := make([]bool, 41)
		for i := 0; i < 41; i++ {
			k := d.next()
			if seen[k] {
				t.Fatalf("round %d deals %d twice", round, k)
			}
			seen[k] = true
		}
	}
}

// fakeWorkload fails the ops whose index is in fail.
type fakeWorkload struct {
	ops  int
	fail map[int]bool
}

func (f *fakeWorkload) setup(*recorder) error { return nil }
func (f *fakeWorkload) op(rec *recorder) (int64, error) {
	i := f.ops
	f.ops++
	root := rec.startOp("fake.op")
	defer rec.end(root)
	if f.fail[i] {
		return 0, errors.New("mismatch")
	}
	return 100, nil
}
func (f *fakeWorkload) minOps() int                     { return 4 }
func (f *fakeWorkload) check() error                    { return nil }
func (f *fakeWorkload) fingerprint() map[string]float64 { return map[string]float64{} }
func (f *fakeWorkload) simGbps() (float64, error)       { return 1, nil }
func (f *fakeWorkload) ledger(*recorder, metrics)       {}
func (f *fakeWorkload) close()                          {}

func TestFailureCounting(t *testing.T) {
	w := &fakeWorkload{fail: map[int]bool{1: true, 5: true}}
	s := measure(w, nil, 0, 10)
	// 10 ops rounded up to whole blocks of 4.
	if s.attempted != 12 || s.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 12 and 2", s.attempted, s.failed)
	}
	if len(s.lat) != 10 || s.bytes != 1000 {
		t.Fatalf("%d latencies and %d bytes, want only the 10 verified ops", len(s.lat), s.bytes)
	}
}

func TestFailuresEndTheRun(t *testing.T) {
	fail := map[int]bool{}
	for i := 0; i < 1000; i++ {
		fail[i] = true
	}
	s := measure(&fakeWorkload{fail: fail}, nil, time.Hour, 1)
	if s.failed != maxFailures || s.attempted != maxFailures || len(s.lat) != 0 {
		t.Fatalf("attempted %d failed %d with %d latencies, want %d failures and stop", s.attempted, s.failed, len(s.lat), maxFailures)
	}
}

func TestRecorderSelfTime(t *testing.T) {
	r := &recorder{}
	ms := time.Millisecond
	r.spans = []span{
		{ID: 0, Parent: -1, Op: 1, Name: "op", Start: 0, End: 10 * ms},
		{ID: 1, Parent: 0, Op: 1, Name: "a", Start: 1 * ms, End: 4 * ms},
		{ID: 2, Parent: 0, Op: 1, Name: "b", Start: 5 * ms, End: 9 * ms},
		{ID: 3, Parent: 2, Op: 1, Name: "a", Start: 6 * ms, End: 7 * ms},
	}
	self := r.selfTimes()
	want := []time.Duration{3 * ms, 3 * ms, 3 * ms, 1 * ms}
	if !slices.Equal(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	if got := r.perOp(ms, "a"); !slices.Equal(got, []float64{4}) {
		t.Errorf("perOp(a) = %v, want [4]", got)
	}
	if got := r.perCall(ms, "a"); !slices.Equal(got, []float64{3, 1}) {
		t.Errorf("perCall(a) = %v, want [3 1]", got)
	}

	var off *recorder // untraced runs pass nil
	off.end(off.begin("x", off.startOp("y")))
}

func TestTracedLoopSharesOpIDs(t *testing.T) {
	r := newRecorder()
	measure(&fakeWorkload{}, r, 0, 4)
	if len(r.spans) != 4 {
		t.Fatalf("%d spans, want 4", len(r.spans))
	}
	for i, s := range r.spans {
		if s.Op != int32(i+1) || s.End < s.Start {
			t.Errorf("span %d: %+v", i, s)
		}
	}
}

func TestLedgerMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var wls, layers []string
	for _, w := range spec.Workloads {
		wls = append(wls, w.Name)
	}
	for _, l := range spec.PerLayer {
		layers = append(layers, l.Name)
	}
	if !slices.Equal(wls, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", wls, workloads)
	}
	want := ledgerNames()
	slices.Sort(want)
	slices.Sort(layers)
	if !slices.Equal(layers, want) {
		t.Errorf("BENCHMARK.json per_layer %v\ntraced run reports %v", layers, want)
	}
}
