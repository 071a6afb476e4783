// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed wall-clock budget and prints, as the last line of
// standard output, one JSON object with the run's correctness, attempted
// and failed op counts and its metrics:
//
//	perfbench --workload halo|served|wire --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end ones (op latency median
// and tail, verified payload rate, peak heap, set-up time, verified
// fraction, simulated throughput). With --trace 1 the run is the
// per-layer ledger: every workload runs once untraced and once with spans
// around each layer call, and the metrics are the layers' self times and
// work counters (see ledgerMap). run.sh builds and runs it from the
// repository root.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workload is one benchmark workload over the program's public calls.
type workload interface {
	// setup builds the program state and runs a fixed number of warm-up
	// ops; rec, when non-nil, records the set-up's layer calls.
	setup(rec *recorder) error
	// op runs one op and returns the verified payload bytes it moved.
	op(rec *recorder) (int64, error)
	// minOps is the op count the counter checks need: the smallest
	// number of ops whose inputs are a whole number of instance decks.
	minOps() int
	// check compares the deterministic counters of the ops run so far.
	check() error
	// fingerprint returns the deterministic values a rerun with the same
	// seed must reproduce exactly.
	fingerprint() map[string]float64
	// simGbps is the workload's modelled throughput.
	simGbps() (float64, error)
	// ledger adds the per-layer metrics of the spans in rec.
	ledger(rec *recorder, m metrics)
	close()
}

var workloads = []string{"halo", "served", "wire"}

func newWorkload(name string, seed int64) (workload, error) {
	in := newInputs(seed)
	switch name {
	case "halo":
		return newHalo(in), nil
	case "served":
		return newServed(in), nil
	case "wire":
		return newWire(in), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloads, ", "))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) add(name string, v float64, unit string) { m[name] = metric{v, unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// setupRuns is how many fresh processes set the workload up per run;
// setup_s is their median.
const setupRuns = 5

// maxFailures ends a run early: past it, the program is broken and more
// ops only burn the time budget.
const maxFailures = 10

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 10, "measured wall-clock seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end metrics")
	out := fs.String("out", ".bench_build", "directory for span files and determinism fingerprints")
	setupOnly := fs.Bool("setup-only", false, "set the workload up once, print the seconds it took and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if !slices.Contains(workloads, *name) {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloads, ", "))
	}
	if *setupOnly {
		secs, err := setupOnce(*name, *seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, secs)
		return nil
	}

	var res result
	var fps map[string]map[string]float64
	var err error
	if *trace == 1 {
		res, fps, err = ledgerRun(*name, *seed, *seconds, *out)
	} else {
		res, fps, err = endToEnd(*name, *seed, *seconds)
	}
	if err != nil {
		return err
	}
	for wl, fp := range fps {
		if err := checkFingerprint(*out, fmt.Sprintf("%s-seed%d-trace%d", wl, *seed, *trace), fp); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			res.Correct = false
			res.Failed++
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// setupOnce generates the inputs, then times the program's set-up.
func setupOnce(name string, seed int64) (float64, error) {
	w, err := newWorkload(name, seed)
	if err != nil {
		return 0, err
	}
	defer w.close()
	start := time.Now()
	if err := w.setup(nil); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

// setupSeconds sets the workload up in setupRuns fresh processes, one
// after another, and returns the median: in-process repeats would find
// the program's caches already warm.
func setupSeconds(name string, seed int64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var secs []float64
	for i := 0; i < setupRuns; i++ {
		cmd := exec.Command(exe, "--setup-only", "--workload", name, "--seed", strconv.FormatInt(seed, 10))
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return 0, fmt.Errorf("set-up run %d: %w", i, err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return 0, fmt.Errorf("set-up run %d: %w", i, err)
		}
		secs = append(secs, v)
	}
	return median(secs), nil
}

// sample is what one measured loop saw.
type sample struct {
	lat               []float64 // ms per verified op
	bytes             int64     // verified payload
	attempted, failed int
	secs              float64
	peakHeap          uint64
}

// measure runs ops until d has passed and at least minN ops were
// attempted, and stops only after a whole number of the workload's
// minOps blocks: every run then carries the same input mix, whatever its
// seed and however fast the machine is. Every op is byte-verified by the
// workload; an op that errs counts as failed and is not retried.
func measure(w workload, rec *recorder, d time.Duration, minN int) sample {
	var s sample
	block := w.minOps()
	heap := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	start := time.Now()
	for (time.Since(start) < d || s.attempted < minN || s.attempted%block != 0) && s.failed < maxFailures {
		t0 := time.Now()
		n, err := w.op(rec)
		dt := time.Since(t0)
		s.attempted++
		if err != nil {
			s.failed++
			fmt.Fprintln(os.Stderr, "perfbench: op failed:", err)
			continue
		}
		s.lat = append(s.lat, float64(dt)/float64(time.Millisecond))
		s.bytes += n
		rtmetrics.Read(heap)
		s.peakHeap = max(s.peakHeap, heap[0].Value.Uint64())
	}
	s.secs = time.Since(start).Seconds()
	return s
}

// endToEnd is the untraced run: set-up in fresh processes, then one
// measured loop in this one.
func endToEnd(name string, seed int64, seconds float64) (result, map[string]map[string]float64, error) {
	setupS, err := setupSeconds(name, seed)
	if err != nil {
		return result{}, nil, err
	}
	w, err := newWorkload(name, seed)
	if err != nil {
		return result{}, nil, err
	}
	defer w.close()
	if err := w.setup(nil); err != nil {
		return result{}, nil, err
	}
	runtime.GC()
	q := tailPermille[name]
	s := measure(w, nil, time.Duration(seconds*float64(time.Second)), max(minOps(q), w.minOps()))
	res := result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: metrics{}}
	if err := w.check(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		res.Correct = false
		res.Failed++
	}
	sim, err := w.simGbps()
	if err != nil {
		return result{}, nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: %d ops in %.2f s; op_tail_ms is p%.1f with %d of %d samples beyond\n",
		name, s.attempted, s.secs, float64(q)/10, beyond(len(s.lat), q), len(s.lat))
	m := res.Metrics
	m.add("op_p50_ms", median(s.lat), "ms")
	m.add("op_tail_ms", percentile(s.lat, q), "ms")
	m.add("payload_MBps", float64(s.bytes)/1e6/s.secs, "MB/s")
	m.add("peak_heap_MB", float64(s.peakHeap)/1e6, "MB")
	m.add("setup_s", setupS, "s")
	m.add("verified_frac", float64(s.attempted-s.failed)/float64(s.attempted), "frac")
	m.add("sim_Gbps", sim, "Gbps")
	fp := w.fingerprint()
	fp["sim_Gbps"] = sim
	return res, map[string]map[string]float64{name: fp}, nil
}

// ledgerSide is the measured time of each phase of the workloads the
// ledger runs besides the one named on the command line.
const ledgerSide = time.Second

// ledgerRun is the traced run. Every workload is set up, run untraced,
// then run again with a span around each layer call; the named workload
// gets half of the budget per phase, the others ledgerSide. The metrics
// are named workload.layer.metric.
func ledgerRun(primary string, seed int64, seconds float64, out string) (result, map[string]map[string]float64, error) {
	order := []string{primary}
	for _, wl := range workloads {
		if wl != primary {
			order = append(order, wl)
		}
	}
	res := result{Correct: true, Metrics: metrics{}}
	fps := map[string]map[string]float64{}
	for _, name := range order {
		phase := ledgerSide
		if name == primary {
			phase = time.Duration(seconds / 2 * float64(time.Second))
		}
		w, err := newWorkload(name, seed)
		if err != nil {
			return result{}, nil, err
		}
		rec := newRecorder()
		if err := w.setup(rec); err != nil {
			w.close()
			return result{}, nil, err
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		un := measure(w, nil, phase, w.minOps())
		runtime.ReadMemStats(&m1)
		tr := measure(w, rec, phase, w.minOps())
		res.Attempted += un.attempted + tr.attempted
		res.Failed += un.failed + tr.failed
		if err := w.check(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			res.Failed++
		}

		lm := metrics{}
		w.ledger(rec, lm)
		ops := float64(un.attempted)
		lm.add("runtime.alloc_MB_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/ops, "MB")
		lm.add("runtime.allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/ops, "count")
		lm.add("runtime.gc_cycles_per_op", float64(m1.NumGC-m0.NumGC)/ops, "count")
		lm.add("trace.overhead_ms", median(tr.lat)-median(un.lat), "ms")
		for k, v := range lm {
			res.Metrics[name+"."+k] = v
		}
		fp := w.fingerprint()
		for _, k := range deterministic {
			if v, ok := lm[k]; ok {
				fp[k] = v.Value
			}
		}
		fps[name] = fp
		w.close()

		fmt.Fprintf(os.Stderr, "%s: %d untraced + %d traced ops\n%s", name, un.attempted, tr.attempted, rec.selfTable())
		if err := writeSpans(rec, filepath.Join(out, "spans-"+name+".jsonl")); err != nil {
			return result{}, nil, err
		}
	}
	res.Correct = res.Failed == 0
	printLedgerMap(os.Stderr)
	return res, fps, nil
}

func writeSpans(rec *recorder, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkFingerprint compares fp with the one an earlier run of the same
// binary and key stored under out, storing fp when there is none.
func checkFingerprint(out, key string, fp map[string]float64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	b, err := os.ReadFile(exe)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(b)
	path := filepath.Join(out, "fingerprints", key+"-"+hex.EncodeToString(sum[:8])+".json")
	if old, err := os.ReadFile(path); err == nil {
		var want map[string]float64
		if err := json.Unmarshal(old, &want); err != nil {
			return fmt.Errorf("fingerprint %s: %w", path, err)
		}
		var drift []string
		for k, v := range fp {
			if w, ok := want[k]; !ok || w != v {
				drift = append(drift, fmt.Sprintf("%s = %v, earlier run %v", k, v, w))
			}
		}
		if len(drift) > 0 {
			sort.Strings(drift)
			return fmt.Errorf("drift against an earlier run with the same seed: %s", strings.Join(drift, "; "))
		}
		return nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	b, err = json.Marshal(fp)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
