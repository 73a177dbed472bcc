package main

import (
	"errors"
	"fmt"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"privagic"
	"privagic/internal/sources"
)

// entry is the embedded YCSB loop every workload calls.
const entry = "run_ycsb"

// YCSB loop constants shared by every program in internal/sources: one call
// runs opsPerCall operations over keys [0, keyspace), an LCG picks each
// operation, and (seed & 15) < 8 makes it a set, otherwise a get.
const (
	opsPerCall = 600
	keyspace   = 40
)

// loopText is the loop the oracle models; a program that does not carry
// it verbatim is refused rather than checked against a wrong model.
var loopText = []string{
	"for (long i = 0; i < 600; i++) {",
	"seed = (seed * 1103515245 + 12345) & 2147483647;",
	"long key = seed % 40;",
	"if ((seed & 15) < 8) {",
}

// seedLiteral matches the loop's seed initialization in run_ycsb.
var seedLiteral = regexp.MustCompile(`long seed = (\d+);`)

// waitTimeout bounds every runtime wait. The longest healthy waits seen on
// these programs (prt.wait_block_us.max, hashmap2 on a shared 2-vCPU box)
// are 4-41 ms, a worker waiting out other threads' scheduler slices; a
// wait that sees no progress for this long is a stuck protocol, and the
// call fails with ErrWaitTimeout.
const waitTimeout = 500 * time.Millisecond

// workload is one closed-loop benchmark case with a single caller.
type workload struct {
	name    string
	src     string
	mode    privagic.Mode
	defense bool // arm FullBoundaryDefense
	fresh   bool // every call runs on a fresh Instantiate of the program
	procs   int  // GOMAXPROCS for the run; 0 keeps the Go runtime's default
}

// hashmap2 runs on one Go processor. The cold call that fills the map
// (each set-up's warm-up call) hits the replicated-chunk liveness hang in
// ~3-6% of calls when the chunk replicas run in parallel, and in none of
// 2000 on one processor; its warm calls insert nothing and have not failed
// either way. hashmap2-fill keeps the default so that the hang shows: it
// runs but is not listed in BENCHMARK.json, because every call is a cold
// call, ~4% of which time out, and the time they lose makes its throughput
// too unsteady to hold a regression bound.
var workloads = []workload{
	{name: "mc-core", src: sources.MemcachedCoreColored, mode: privagic.Hardened, defense: true},
	{name: "hashmap2", src: sources.HashmapColored2, mode: privagic.Relaxed, procs: 1},
	{name: "hashmap2-fill", src: sources.HashmapColored2, mode: privagic.Relaxed, fresh: true},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// seeded returns the workload's source with the YCSB loop's seed literal
// replaced by seed, and the seed the program will start from. A negative
// seed keeps the program verbatim.
func (w *workload) seeded(seed int64) (string, int64, error) {
	src, start, err := seedSource(w.src, seed)
	if err != nil {
		return "", 0, fmt.Errorf("%s: %w", w.name, err)
	}
	return src, start, nil
}

func seedSource(src string, seed int64) (string, int64, error) {
	for _, line := range loopText {
		if !strings.Contains(src, line) {
			return "", 0, fmt.Errorf("YCSB loop line %q not found; the oracle does not model this program", line)
		}
	}
	m := seedLiteral.FindAllStringSubmatch(src, -1)
	if len(m) != 1 {
		return "", 0, fmt.Errorf("want one seed literal in the YCSB loop, found %d", len(m))
	}
	if seed < 0 {
		lit, err := strconv.ParseInt(m[0][1], 10, 64)
		return src, lit, err
	}
	seed &= 2147483647
	return strings.Replace(src, m[0][0], fmt.Sprintf("long seed = %d;", seed), 1), seed, nil
}

// model predicts run_ycsb's result: the number of gets that find their
// key. Keys set by earlier calls stay present for the instance's lifetime.
type model struct {
	seed    int64
	present [keyspace]bool
}

func (m *model) call() int64 {
	s, hits := m.seed, int64(0)
	for i := 0; i < opsPerCall; i++ {
		s = (s*1103515245 + 12345) & 2147483647
		k := s % keyspace
		if s&15 < 8 {
			m.present[k] = true
		} else if m.present[k] {
			hits++
		}
	}
	return hits
}

// tally counts every Instance.Call the benchmark makes, warm-up calls
// included.
type tally struct {
	attempted, failed, wrong, timeouts int
}

func (t *tally) failFrac() float64 { return float64(t.failed) / float64(t.attempted) }

// session owns the instance a workload is calling and the model of that
// instance's state.
type session struct {
	w      *workload
	prog   *privagic.Program
	seed   int64
	traced bool
	inst   *privagic.Instance
	model  model
	tally  *tally

	// layers and allocs, when set, accumulate the per-layer counters of
	// the session's successful measured calls.
	layers *layerAcc
	allocs *allocAcc
}

func compile(w *workload, src string) (*privagic.Program, error) {
	return privagic.Compile(w.name+".c", src, privagic.Options{
		Mode:    w.mode,
		Entries: []string{entry},
		Audit:   privagic.AuditStrict,
		Engine:  privagic.EngineCompiled,
	})
}

// open instantiates the program and arms supervision, the boundary
// defenses and, for a traced session, metrics and tracing.
func (s *session) open() {
	s.inst = s.prog.Instantiate(nil)
	s.inst.EnableSupervision(privagic.SupervisionOptions{WaitTimeout: waitTimeout})
	if s.w.defense {
		s.inst.EnableBoundaryDefense(privagic.FullBoundaryDefense())
	}
	if s.traced {
		s.inst.EnableObservability(privagic.ObservabilityOptions{Metrics: true, Trace: true})
	}
	s.model = model{seed: s.seed}
}

func (s *session) close() {
	if s.inst != nil {
		s.inst.Close()
		s.inst = nil
	}
}

// call makes one checked Instance.Call. A call that errors, times out or
// returns another result than the model predicts is a failure; the
// instance is then closed, and the next call opens a fresh one.
func (s *session) call() error {
	s.tally.attempted++
	got, err := s.inst.Call(entry)
	want := s.model.call()
	if err == nil && got != want {
		s.tally.wrong++
		err = fmt.Errorf("%s: run_ycsb returned %d, the model predicts %d", s.w.name, got, want)
	}
	if err != nil {
		s.tally.failed++
		if errors.Is(err, privagic.ErrWaitTimeout) {
			s.tally.timeouts++
		}
		s.close()
	}
	return err
}

// maxWarmupFailures bounds the warm-up calls one set-up may lose before
// the run gives up: at the few-percent failure rate of a cold call on
// parallel replicas (hashmap2-fill), ten in a row do not happen by chance.
const maxWarmupFailures = 10

// setUp times one set-up: compile with strict audit, Instantiate with
// chunk lowering, arming, and calls until the first success. Failed
// warm-up calls count as failed and their instance is replaced.
func setUp(w *workload, src string, seed int64, traced bool, t *tally) (*session, time.Duration, error) {
	start := time.Now()
	prog, err := compile(w, src)
	if err != nil {
		return nil, 0, err
	}
	s := &session{w: w, prog: prog, seed: seed, traced: traced, tally: t}
	for i := 0; ; i++ {
		s.open()
		err := s.call()
		if err == nil {
			return s, time.Since(start), nil
		}
		if i+1 == maxWarmupFailures {
			return nil, 0, fmt.Errorf("%s: %d warm-up calls in a row failed, the last with: %w", w.name, maxWarmupFailures, err)
		}
	}
}

// setupSampler repeats the set-up through a run: set-up time moves with
// the machine's load, so samples spread over the run, whose median is
// setup_s, follow the same conditions as the calls.
type setupSampler struct {
	w    *workload
	src  string
	seed int64
	t    *tally
	n    int       // samples per run
	secs []float64 // set-up times so far
}

// due reports whether the next sample is due elapsed into a run of dur.
func (p *setupSampler) due(elapsed, dur time.Duration) bool {
	return len(p.secs) < p.n && elapsed >= time.Duration(len(p.secs))*dur/time.Duration(p.n)
}

// sample times one untraced set-up after a forced GC and returns its
// session, still open.
func (p *setupSampler) sample() (*session, error) {
	runtime.GC()
	s, d, err := setUp(p.w, p.src, p.seed, false, p.t)
	if err != nil {
		return nil, err
	}
	p.secs = append(p.secs, d.Seconds())
	return s, nil
}

// timedCall makes one measured call and returns its latency; measured is
// false for the untimed warm-up call that reopens a long-lived session
// after a failure. On a fresh session the latency covers Instantiate,
// arming and the call, and the instance is closed afterwards. The layer
// probes read their counters outside the timed window, and only
// successful calls add to them.
func (s *session) timedCall() (d time.Duration, measured bool, err error) {
	if !s.w.fresh && s.inst == nil {
		s.open()
		return 0, false, s.call()
	}
	if s.w.fresh {
		s.close() // the set-up's instance, on the first call
	}
	var before counters
	var mem0 runtime.MemStats
	if s.allocs != nil {
		runtime.ReadMemStats(&mem0)
	}
	if s.layers != nil && !s.w.fresh {
		before = readCounters(s.inst)
	}
	start := time.Now()
	if s.w.fresh {
		s.open()
	}
	err = s.call()
	d = time.Since(start)
	if err == nil {
		if s.allocs != nil {
			s.allocs.add(&mem0)
		}
		if s.layers != nil {
			s.layers.add(readCounters(s.inst), before)
		}
	}
	if s.w.fresh {
		s.close()
	}
	return d, true, err
}
