package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"privagic"
	"privagic/internal/audit"
	"privagic/internal/interp"
	"privagic/internal/minic"
	"privagic/internal/partition"
	"privagic/internal/passes"
	"privagic/internal/prt"
	"privagic/internal/queue"
	"privagic/internal/sgx"
	"privagic/internal/typing"
)

// layerMetric is one per-layer metric: its unit, the end-to-end metrics
// it should move, and on which workloads.
type layerMetric struct {
	name, unit string
	feeds      []string
	on         string
}

var layerMetrics = []layerMetric{
	{"frontend.ms", "ms", []string{"setup_s"}, "every workload"},
	{"mem2reg.ms", "ms", []string{"setup_s"}, "every workload"},
	{"typing.ms", "ms", []string{"setup_s"}, "every workload"},
	{"partition.ms", "ms", []string{"setup_s"}, "every workload"},
	{"audit.ms", "ms", []string{"setup_s"}, "every workload"},
	{"instantiate.ms", "ms", []string{"setup_s", "call_p50_ms"}, "every workload; call_p50_ms on hashmap2-fill only"},
	{"chunk_compile.ms", "ms", []string{"setup_s", "call_p50_ms"}, "every workload; call_p50_ms on hashmap2-fill only"},
	{"stages.ms", "ms", []string{"setup_s"}, "every workload; the rest of setup_s is arming and the warm-up call"},
	{"ir.instrs", "count", []string{"setup_s"}, "every workload"},
	{"partition.chunks", "count", []string{"setup_s"}, "every workload"},
	{"exec.dispatches_per_op", "count", []string{"call_p50_ms", "ops_per_s"}, "mc-core; not hashmap2"},
	{"exec.allocs_per_op", "count", []string{"call_p50_ms", "ops_per_s"}, "mc-core; not hashmap2"},
	{"exec.bytes_per_op", "B", []string{"call_p50_ms", "ops_per_s", "live_heap_mb"}, "mc-core; not hashmap2"},
	{"chunk.exec_us_per_op", "us", []string{"call_p50_ms", "ops_per_s"}, "mc-core; not hashmap2"},
	{"chunk.self_us_per_op", "us", []string{"call_p50_ms", "ops_per_s"}, "mc-core; not hashmap2"},
	{"seam.snapshot_served_per_op", "count", []string{"call_p50_ms"}, "mc-core; zero on hashmap2"},
	{"seam.snapshot_copyins_per_op", "count", []string{"call_p50_ms"}, "mc-core; zero on hashmap2"},
	{"seam.sanitize_checks_per_op", "count", []string{"call_p50_ms"}, "mc-core; zero on hashmap2"},
	{"wait.blocks_per_op", "count", []string{"call_p50_ms"}, "hashmap2; near zero on mc-core"},
	{"wait.block_us_per_op", "us", []string{"call_p50_ms"}, "hashmap2; near zero on mc-core"},
	{"crossing.transitions_per_op", "count", []string{"call_p50_ms"}, "hashmap2-fill (enclave entries at worker start); zero on long-lived instances"},
	{"crossing.sim_cycles_per_op", "cycles", []string{"call_p50_ms"}, "hashmap2 (modelled SGX cost; moves with any crossing-count change)"},
	{"queue.msgs_per_op", "count", []string{"call_p50_ms"}, "hashmap2 and hashmap2-fill; not mc-core"},
	{"queue.parks_per_op", "count", []string{"call_p50_ms"}, "hashmap2 and hashmap2-fill; not mc-core"},
	{"queue.hop_ns", "ns", []string{"call_p50_ms"}, "hashmap2 and hashmap2-fill; not mc-core"},
	{"queue.pair_ns", "ns", []string{"call_p50_ms"}, "hashmap2 and hashmap2-fill; not mc-core"},
	{"trace.overhead_frac", "frac", nil, "traced over untraced call_p50_ms, minus one"},
	{"fail_frac", "frac", []string{"success_frac", "ops_per_s"}, "every workload"},
	{"wrong_calls", "count", []string{"success_frac"}, "every workload; any wrong call also makes correct false"},
}

// counters is what one read of an instance's metrics registry and SGX
// meter returns.
type counters struct {
	m                   map[string]int64
	cycles, transitions int64
}

func readCounters(inst *privagic.Instance) counters {
	tr, _, _, _ := inst.Meter().Counts()
	return counters{m: inst.MetricsSnapshot(), cycles: inst.Meter().Cycles(), transitions: tr}
}

// layerAcc sums counter deltas over the successful calls of a traced
// session.
type layerAcc struct {
	calls               int
	sum                 map[string]int64
	cycles, transitions int64
	maxWaitUS           int64
}

// add folds in one call's delta; a zero before stands for a fresh
// instance, whose counters start at zero.
func (a *layerAcc) add(after, before counters) {
	if a.sum == nil {
		a.sum = map[string]int64{}
	}
	a.calls++
	for k, v := range after.m {
		a.sum[k] += v - before.m[k]
	}
	a.cycles += after.cycles - before.cycles
	a.transitions += after.transitions - before.transitions
	a.maxWaitUS = max(a.maxWaitUS, after.m["prt.wait_block_us.max"])
}

// allocAcc sums heap allocations over the successful calls of an
// untraced session.
type allocAcc struct {
	calls          int
	mallocs, bytes uint64
}

func (a *allocAcc) add(before *runtime.MemStats) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	a.calls++
	a.mallocs += now.Mallocs - before.Mallocs
	a.bytes += now.TotalAlloc - before.TotalAlloc
}

// stageNames are the compile-stage probe's stages, in pipeline order.
var stageNames = []string{"frontend", "mem2reg", "typing", "partition", "audit", "instantiate", "chunk_compile"}

// stageRun is one pass of the set-up pipeline through each layer's public
// functions: the steps privagic.Compile and Program.Instantiate take.
type stageRun struct {
	ms             map[string]float64
	instrs, chunks int
}

func runStages(w *workload, src string) (stageRun, error) {
	r := stageRun{ms: map[string]float64{}}
	lap := func(name string, start time.Time) time.Time {
		now := time.Now()
		r.ms[name] = float64(now.Sub(start).Nanoseconds()) / 1e6
		return now
	}
	t := time.Now()
	mod, err := minic.Compile(w.name+".c", src)
	if err != nil {
		return r, fmt.Errorf("frontend: %w", err)
	}
	t = lap("frontend", t)
	passes.RunAll(mod)
	t = lap("mem2reg", t)
	an := typing.Analyze(mod, typing.Options{Mode: w.mode, Entries: []string{entry}})
	if err := an.Err(); err != nil {
		return r, fmt.Errorf("typing: %w", err)
	}
	t = lap("typing", t)
	prog, err := partition.Partition(an)
	if err != nil {
		return r, fmt.Errorf("partition: %w", err)
	}
	t = lap("partition", t)
	if err := audit.Run(prog).Err(); err != nil {
		return r, fmt.Errorf("audit: %w", err)
	}
	t = lap("audit", t)
	ip := interp.New(prog, sgx.MachineB())
	defer ip.Close()
	t = lap("instantiate", t)
	if err := ip.SetEngine(prt.EngineCompiled); err != nil {
		return r, fmt.Errorf("chunk compile: %w", err)
	}
	lap("chunk_compile", t)
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			r.instrs += len(b.Instrs)
		}
	}
	r.chunks = len(prog.ChunkByID)
	return r, nil
}

// stageProbe runs the pipeline n times, each after a forced GC, and
// returns each stage's median, the median of the per-run stage sums, the
// IR size and the chunk count.
func stageProbe(w *workload, src string, n int) (map[string]float64, float64, stageRun, error) {
	per := map[string][]float64{}
	var sums []float64
	var last stageRun
	for i := 0; i < n; i++ {
		runtime.GC()
		r, err := runStages(w, src)
		if err != nil {
			return nil, 0, r, fmt.Errorf("%s: %w", w.name, err)
		}
		sum := 0.0
		for _, s := range stageNames {
			per[s] = append(per[s], r.ms[s])
			sum += r.ms[s]
		}
		sums = append(sums, sum)
		last = r
	}
	med := map[string]float64{}
	for _, s := range stageNames {
		med[s] = median(per[s])
	}
	return med, median(sums), last, nil
}

// queueProbe times internal/queue from the outside: a two-goroutine
// ping-pong round trip (as BenchmarkHopLatency measures it) and an
// uncontended Enqueue+Dequeue pair, each the median of several batches.
func queueProbe() (hopNS, pairNS float64) {
	const batches, hops, pairs = 7, 20000, 100000
	req, resp := queue.New[int](), queue.New[int]()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := req.DequeueBlock(); v >= 0; v = req.DequeueBlock() {
			resp.Enqueue(v)
		}
	}()
	var hopRuns, pairRuns []float64
	for b := 0; b < batches; b++ {
		start := time.Now()
		for i := 0; i < hops; i++ {
			req.Enqueue(i)
			resp.DequeueBlock()
		}
		hopRuns = append(hopRuns, float64(time.Since(start).Nanoseconds())/hops)
	}
	req.Enqueue(-1)
	wg.Wait()

	q := queue.New[int]()
	for b := 0; b < batches; b++ {
		start := time.Now()
		for i := 0; i < pairs; i++ {
			q.Enqueue(i)
			q.Dequeue()
		}
		pairRuns = append(pairRuns, float64(time.Since(start).Nanoseconds())/pairs)
	}
	return median(hopRuns), median(pairRuns)
}
