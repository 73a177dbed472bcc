// Command perfbench times Instance.Call on the paper's colored programs
// from internal/sources, end to end and layer by layer.
//
// Each workload compiles its program with the strict audit and the
// compiled engine, and a single closed-loop caller calls run_ycsb, the
// program's embedded YCSB loop (600 operations per call), under
// supervision with a bounded wait. Every result is checked against a
// model of that loop; a call that errors, times out or returns a wrong
// result is a failed call.
//
//	go run . --workload mc-core --seed 7 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// prints the per-layer metrics of a run that alternates untraced calls
// with calls on an instance armed with metrics and tracing. The last line
// of standard output is one JSON object: correct, attempted, failed and
// metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// setupReps is how many times a run sets its program up; setup_s is the
// median.
const setupReps = 21

// heapAtCalls is the measured call after which live_heap_mb is read. The
// reading is taken at a fixed call count, not at the end of the run: a
// long-lived instance's simulated enclave memory grows with every call
// (stack allocas are never released) in power-of-two steps, so an
// end-of-run reading would rise whenever throughput did.
const heapAtCalls = 1000

// windowCalls is the number of consecutive successful calls in one
// window. The end-to-end call metrics are medians over a run's windows, so
// a burst of load from outside the process moves a window or two, not the
// result; a window of 1000 calls leaves 10 samples beyond its p99.
const windowCalls = 1000

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: mc-core, hashmap2 or hashmap2-fill")
	seed := flag.Int64("seed", -1, "seed substituted into the program's YCSB loop (negative: the program's own literal)")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, dur time.Duration, trace int) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if dur <= 0 || (trace != 0 && trace != 1) {
		return errors.New("want --seconds > 0 and --trace 0 or 1")
	}
	src, progSeed, err := w.seeded(seed)
	if err != nil {
		return err
	}
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	fmt.Printf("# perfbench commit=%s go=%s GOMAXPROCS=%d NumCPU=%d date=%s\n",
		commit(), runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), time.Now().UTC().Format(time.RFC3339))
	fmt.Printf("# workload=%s ycsb_seed=%d seconds=%v trace=%d wait_timeout=%v\n", w.name, progSeed, dur.Seconds(), trace, waitTimeout)

	t := &tally{}
	var res *result
	if trace == 0 {
		res, err = runEndToEnd(w, src, progSeed, dur, t)
	} else {
		res, err = runLayers(w, src, progSeed, dur, t)
	}
	if err != nil {
		return err
	}
	fmt.Printf("# calls attempted=%d failed=%d timeouts=%d wrong_calls=%d fail_frac=%.6f\n",
		t.attempted, t.failed, t.timeouts, t.wrong, t.failFrac())
	res.Correct, res.Attempted, res.Failed = t.wrong == 0, t.attempted, t.failed
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// runEndToEnd measures one long-lived (or per-call fresh) session for
// dur, with set-ups sampled through the run, and reports the end-to-end
// metrics.
func runEndToEnd(w *workload, src string, seed int64, dur time.Duration, t *tally) (*result, error) {
	setups := &setupSampler{w: w, src: src, seed: seed, t: t, n: setupReps}
	s, err := setups.sample()
	if err != nil {
		return nil, err
	}
	run, err := measure([]*session{s}, dur, setups)
	s.close()
	if err != nil {
		return nil, err
	}
	ms := run.lats[0]
	if len(ms) == 0 {
		return nil, fmt.Errorf("%s: no call succeeded in %v", w.name, dur)
	}
	var ops, p50s, p99s []float64
	for _, win := range windows(ms, run.ends) {
		ops, p50s, p99s = append(ops, win.opsPerS), append(p50s, win.p50), append(p99s, win.p99)
	}
	res := &result{Metrics: map[string]metric{
		"ops_per_s":    {median(ops), "1/s"},
		"call_p50_ms":  {median(p50s), "ms"},
		"success_frac": {1 - t.failFrac(), "frac"},
		"setup_s":      {median(setups.secs), "s"},
		"live_heap_mb": {run.heapMB, "MB"},
	}}
	fmt.Printf("# samples=%d windows=%d setups=%d heap_read_after=%d calls\n",
		len(ms), len(ops), len(setups.secs), run.heapCalls)
	printMetrics(res.Metrics)
	// call_p99_ms is printed, not returned: on a shared 2-vCPU box its
	// run-to-run spread is two to three times that of call_p50_ms, too
	// wide for the regression bound BENCHMARK.json would give it.
	fmt.Printf("%-30s %16.6f %s (not in the JSON result)\n", "call_p99_ms", median(p99s), "ms")
	if len(ms) < windowCalls {
		fmt.Printf("# fewer than %d calls: p99 keeps %d samples beyond it, run longer to resolve call_p99_ms\n",
			windowCalls, beyondP99(len(ms)))
	}
	return res, nil
}

// runLayers reports the per-layer metrics: the compile-stage and queue
// probes, then a run that alternates calls between an untraced session
// (latency, allocations) and a traced one (runtime counters).
func runLayers(w *workload, src string, seed int64, dur time.Duration, t *tally) (*result, error) {
	stages, stageSum, shape, err := stageProbe(w, src, setupReps)
	if err != nil {
		return nil, err
	}
	hopNS, pairNS := queueProbe()
	setups := &setupSampler{w: w, src: src, seed: seed, t: t, n: setupReps}
	u, err := setups.sample()
	if err != nil {
		return nil, err
	}
	tr, _, err := setUp(w, src, seed, true, t)
	if err != nil {
		u.close()
		return nil, err
	}
	u.allocs, tr.layers = &allocAcc{}, &layerAcc{}
	run, err := measure([]*session{u, tr}, dur, setups)
	u.close()
	tr.close()
	if err != nil {
		return nil, err
	}
	lats := run.lats
	if len(lats[0]) == 0 || len(lats[1]) == 0 {
		return nil, fmt.Errorf("%s: no call succeeded in %v", w.name, dur)
	}

	a, al := tr.layers, u.allocs
	ops := float64(a.calls * opsPerCall)
	per := func(k string) float64 { return float64(a.sum[k]) / ops }
	chunkUS, waitUS := per("prt.chunk_exec_us.sum"), per("prt.wait_block_us.sum")
	v := map[string]float64{
		"stages.ms":                    stageSum,
		"ir.instrs":                    float64(shape.instrs),
		"partition.chunks":             float64(shape.chunks),
		"exec.dispatches_per_op":       per("exec.compiled_dispatches"),
		"exec.allocs_per_op":           float64(al.mallocs) / float64(al.calls*opsPerCall),
		"exec.bytes_per_op":            float64(al.bytes) / float64(al.calls*opsPerCall),
		"chunk.exec_us_per_op":         chunkUS,
		"chunk.self_us_per_op":         chunkUS - waitUS,
		"seam.snapshot_served_per_op":  per("interp.boundary.snapshot_served"),
		"seam.snapshot_copyins_per_op": per("interp.boundary.snapshot_copyins"),
		"seam.sanitize_checks_per_op":  per("interp.boundary.sanitize_checks"),
		"wait.blocks_per_op":           per("prt.wait_block_us.count"),
		"wait.block_us_per_op":         waitUS,
		"crossing.transitions_per_op":  float64(a.transitions) / ops,
		"crossing.sim_cycles_per_op":   float64(a.cycles) / ops,
		"queue.msgs_per_op":            per("prt.queue.enqueues"),
		"queue.parks_per_op":           per("prt.queue.parks"),
		"queue.hop_ns":                 hopNS,
		"queue.pair_ns":                pairNS,
		"trace.overhead_frac":          median(lats[1])/median(lats[0]) - 1,
		"fail_frac":                    t.failFrac(),
		"wrong_calls":                  float64(t.wrong),
	}
	for _, s := range stageNames {
		v[s+".ms"] = stages[s]
	}
	// The end-to-end metrics of the run's untraced calls, printed beside
	// the layer metrics that feed them; ops_per_s here counts call time
	// only.
	callSecs := 0.0
	for _, ms := range lats[0] {
		callSecs += ms / 1e3
	}
	e2e := map[string]metric{
		"ops_per_s":    {float64(len(lats[0])*opsPerCall) / callSecs, "1/s"},
		"call_p50_ms":  {median(lats[0]), "ms"},
		"call_p99_ms":  {p99(lats[0]), "ms"},
		"success_frac": {1 - t.failFrac(), "frac"},
		"setup_s":      {median(setups.secs), "s"},
		"live_heap_mb": {run.heapMB, "MB"},
	}
	fmt.Printf("# samples: untraced=%d traced=%d (traced call_p50_ms=%.4f)\n",
		len(lats[0]), len(lats[1]), median(lats[1]))
	fmt.Printf("# per call: queue msgs=%.1f sim_cycles=%.0f; longest wait %d us\n",
		per("prt.queue.enqueues")*opsPerCall, float64(a.cycles)/float64(a.calls), a.maxWaitUS)
	res := &result{Metrics: map[string]metric{}}
	for _, m := range layerMetrics {
		res.Metrics[m.name] = metric{v[m.name], m.unit}
		line := fmt.Sprintf("%-30s %16.6f %-6s", m.name, v[m.name], m.unit)
		for _, f := range m.feeds {
			line += fmt.Sprintf(" %s=%.6g %s", f, e2e[f].Value, e2e[f].Unit)
		}
		fmt.Printf("%-100s (%s)\n", line, m.on)
	}
	return res, nil
}

// measurement is what measure returns.
type measurement struct {
	lats [][]float64 // per session, successful call latencies in ms
	// ends holds, per successful call of session 0, the run time at which
	// it ended: failed calls and warm-ups count, set-up samples and the
	// heap reading do not.
	ends      []time.Duration
	heapMB    float64 // live heap after heapCalls measured calls
	heapCalls int
}

// measure calls the sessions in turn until dur has passed, taking the
// set-up samples as they fall due.
func measure(ss []*session, dur time.Duration, setups *setupSampler) (measurement, error) {
	run := measurement{lats: make([][]float64, len(ss))}
	var aside time.Duration // set-up samples and the heap reading
	start := time.Now()
	for i := 0; ; i++ {
		elapsed := time.Since(start)
		if elapsed >= dur {
			break
		}
		if setups.due(elapsed, dur) {
			t0 := time.Now()
			s, err := setups.sample()
			if err != nil {
				return run, err
			}
			s.close()
			aside += time.Since(t0)
			continue
		}
		k := i % len(ss)
		d, timed, err := ss[k].timedCall()
		if err != nil {
			fmt.Printf("# failed call: %.300s\n", err)
		} else if timed {
			run.lats[k] = append(run.lats[k], float64(d.Nanoseconds())/1e6)
			if k == 0 {
				run.ends = append(run.ends, time.Since(start)-aside)
			}
			if k == 0 && len(run.lats[0]) == heapAtCalls {
				t0 := time.Now()
				run.heapMB, run.heapCalls = liveHeapMB(), heapAtCalls
				aside += time.Since(t0)
			}
		}
	}
	if run.heapCalls == 0 {
		run.heapMB, run.heapCalls = liveHeapMB(), len(run.lats[0])
	}
	return run, nil
}

// window is one window's throughput and call latency percentiles.
type window struct {
	opsPerS, p50, p99 float64
}

// windows splits session 0's successful calls into windows of
// windowCalls consecutive calls and drops the partial last one; a run
// with fewer calls is one window. A window's throughput is its
// successful operations over the run time between the end of the
// previous window's last call and the end of its own.
func windows(lats []float64, ends []time.Duration) []window {
	n := min(windowCalls, len(lats))
	var ws []window
	var from time.Duration
	for i := 0; i+n <= len(lats); i += n {
		to := ends[i+n-1]
		ws = append(ws, window{
			opsPerS: float64(n*opsPerCall) / (to - from).Seconds(),
			p50:     median(lats[i : i+n]),
			p99:     p99(lats[i : i+n]),
		})
		from = to
	}
	return ws
}

func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-30s %16.6f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// p99 is the nearest-rank 99th percentile.
func p99(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(math.Ceil(0.99*float64(len(s))))-1]
}

// beyondP99 is how many samples lie above the nearest-rank p99.
func beyondP99(n int) int { return n - int(math.Ceil(0.99*float64(n))) }
