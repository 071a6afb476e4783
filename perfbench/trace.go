package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed call into a layer: its name, start and end since the
// recorder's epoch, the span that caused it (-1 for an op's root) and the
// op id every span of one op shares.
type span struct {
	ID     int32         `json:"id"`
	Parent int32         `json:"parent"`
	Op     int32         `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the untraced path runs the same code.
type recorder struct {
	epoch time.Time
	op    int32
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// startOp opens the root span of a new op and returns it.
func (r *recorder) startOp(name string) int32 {
	if r == nil {
		return -1
	}
	r.op++
	return r.begin(name, -1)
}

// begin opens a span under parent and returns its id.
func (r *recorder) begin(name string, parent int32) int32 {
	if r == nil {
		return -1
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: r.op, Name: name, Start: time.Since(r.epoch)})
	return id
}

// end closes span id.
func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	r.spans[id].End = time.Since(r.epoch)
}

// selfTimes returns each span's duration minus the part of it its child
// spans cover (children never overlap: every layer call is synchronous).
func (r *recorder) selfTimes() []time.Duration {
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// perOp returns, for every op containing spans named one of names, the
// summed self time of those spans, in the given unit.
func (r *recorder) perOp(unit time.Duration, names ...string) []float64 {
	self := r.selfTimes()
	sums := map[int32]time.Duration{}
	for i, s := range r.spans {
		for _, n := range names {
			if s.Name == n {
				sums[s.Op] += self[i]
			}
		}
	}
	out := make([]float64, 0, len(sums))
	for _, d := range sums {
		out = append(out, float64(d)/float64(unit))
	}
	return out
}

// perCall returns the self time of every span named name, in unit.
func (r *recorder) perCall(unit time.Duration, name string) []float64 {
	self := r.selfTimes()
	var out []float64
	for i, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(self[i])/float64(unit))
		}
	}
	return out
}

// selfTable renders the total self time per span name, largest first.
func (r *recorder) selfTable() string {
	self := r.selfTimes()
	tot := map[string]time.Duration{}
	calls := map[string]int{}
	var all time.Duration
	for i, s := range r.spans {
		tot[s.Name] += self[i]
		calls[s.Name]++
		all += self[i]
	}
	names := make([]string, 0, len(tot))
	for n := range tot {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return tot[names[i]] > tot[names[j]] })
	out := fmt.Sprintf("%-22s %8s %12s %7s\n", "span", "calls", "self_ms", "share")
	for _, n := range names {
		out += fmt.Sprintf("%-22s %8d %12.3f %6.1f%%\n", n, calls[n], float64(tot[n])/1e6, 100*float64(tot[n])/float64(max(all, 1)))
	}
	return out
}

// write emits the spans as JSON lines.
func (r *recorder) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}
