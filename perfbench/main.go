// Command perfbench is the repository benchmark. One invocation runs one
// named workload for a fixed time, checks the program's outputs, and prints
// one JSON result line with every end-to-end metric (or, with --trace 1,
// every per-layer metric):
//
//	perfbench --workload kv-net --seed 1 --seconds 10 --trace 0
//	perfbench steady --runs 10
//
// The workloads drive each layer of the repository through its public
// functions: the RESP server over loopback (kv-net), the sharded STM store
// in process (kv-txn), the Figure-5 simulator grid (sim-sweep) and the
// schedule explorer (sim-explore). See README.md for what each measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is reported by every untraced run, on every workload. ops_s
// counts the workload's own unit of work: a KV request (kv-net), a KV
// operation (kv-txn), a simulated kilocycle (sim-sweep) or an explored
// schedule (sim-explore); p50_us and p99_us time that unit (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_s", "1/s"},
	{"p50_us", "us"},
	{"p99_us", "us"},
	{"peak_rss_mb", "MB"},
}

// perLayer is reported by every traced run. A layer the workload does not
// drive reads 0.
var perLayer = []metricDef{
	{"resp.decode_ns", "ns"},
	{"resp.encode_ns", "ns"},
	{"server.reads_per_op", "count/op"},
	{"server.writes_per_op", "count/op"},
	{"server.bytes_per_op", "B/op"},
	{"server.residual_us", "us"},
	{"net.get_rtt_us.p50", "us"},
	{"net.get_rtt_us.p99", "us"},
	{"net.multi_rtt_us.p50", "us"},
	{"net.multi_rtt_us.p99", "us"},
	{"kvstore.get_ns.p50", "ns"},
	{"kvstore.get_ns.p99", "ns"},
	{"kvstore.put_ns.p50", "ns"},
	{"kvstore.put_ns.p99", "ns"},
	{"kvstore.transfer_ns.p50", "ns"},
	{"kvstore.transfer_ns.p99", "ns"},
	{"kvstore.batch_ns.p50", "ns"},
	{"kvstore.batch_ns.p99", "ns"},
	{"kvstore.shards_per_txn", "count"},
	{"kvstore.group_overhead_x", "x"},
	{"stm.conflict_writer", "count/1k"},
	{"stm.conflict_reader", "count/1k"},
	{"stm.conflict_anon", "count/1k"},
	{"stm.conflict_aborts", "count/1k"},
	{"stm.doomed_aborts", "count/1k"},
	{"stm.dooms", "count/1k"},
	{"stm.upgrades", "count/1k"},
	{"stm.slow_releases", "count/1k"},
	{"stm.snapshot_retries", "count/1k"},
	{"stm.commit_ratio", "ratio"},
	{"stm.overhead_x", "x"},
	{"sim.build_s", "s"},
	{"core.run_s", "s"},
	{"logtmse.run_s", "s"},
	{"core.ns_per_kcycle", "ns"},
	{"logtmse.ns_per_kcycle", "ns"},
	{"sim.commits", "count"},
	{"sim.aborts", "count"},
	{"sim.mcycles", "Mcycles"},
	{"core.fast_commits", "count"},
	{"core.slow_commits", "count"},
	{"explore.schedules", "count"},
	{"explore.states", "count"},
	{"explore.ns_per_schedule", "ns"},
	{"go.sched_events_per_op", "count/op"},
	{"go.sched_events_per_kcycle", "count/kcycle"},
	{"go.sched_events_per_schedule", "count/schedule"},
	{"go.alloc_bytes_per_op", "B/op"},
	{"go.alloc_bytes_per_kcycle", "B/kcycle"},
	{"go.alloc_bytes_per_schedule", "B/schedule"},
	{"cpu.resp", "%"},
	{"cpu.server", "%"},
	{"cpu.kvstore", "%"},
	{"cpu.stm", "%"},
	{"cpu.sim", "%"},
	{"cpu.core", "%"},
	{"cpu.logtmse", "%"},
	{"cpu.sig", "%"},
	{"cpu.memsys", "%"},
	{"cpu.attr", "%"},
	{"cpu.workload", "%"},
	{"cpu.explore", "%"},
	{"cpu.net_syscall", "%"},
	{"cpu.runtime_sched", "%"},
	{"cpu.gc", "%"},
	{"cpu.bench", "%"},
	{"cpu.other", "%"},
	{"trace.ops_s", "1/s"},
	{"trace.overhead_pct", "%"},
}

// runConfig is one invocation's parameters.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
}

// result is what a workload reports. metrics holds either the end-to-end or
// the per-layer set; record holds the supporting figures (sample counts,
// rounds, workload-specific names of the rates) printed on the record line.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]float64
	record    map[string]any
	problems  []string
}

func newResult() *result {
	return &result{correct: true, metrics: map[string]float64{}, record: map[string]any{}}
}

// fail records a failed correctness check.
func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*result, error){
	"kv-net":      runKVNet,
	"kv-txn":      runKVTxn,
	"sim-sweep":   runSimSweep,
	"sim-explore": runSimExplore,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := runSteady(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench steady:", err)
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "", "workload to run: kv-net, kv-txn, sim-sweep or sim-explore")
	seed := flag.Int64("seed", 1, "seed for the workload's generated inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}
	start := time.Now()
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", *workload, err)
		os.Exit(1)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	out := map[string]map[string]any{}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok && !cfg.trace {
			res.fail("metric %s was not measured", d.name)
		}
		if !cfg.trace && (v <= 0 || math.IsNaN(v) || math.IsInf(v, 0)) {
			res.fail("metric %s = %v, want a positive finite value", d.name, v)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "perfbench %s: CHECK FAILED: %s\n", *workload, p)
	}
	rec := map[string]any{
		"workload":  *workload,
		"seed":      *seed,
		"seconds":   *seconds,
		"trace":     *trace,
		"attempted": res.attempted,
		"failed":    res.failed,
		"wall_s":    time.Since(start).Seconds(),
		"host": map[string]any{
			"num_cpu":    runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go_version": runtime.Version(),
			"goos":       runtime.GOOS,
			"goarch":     runtime.GOARCH,
		},
	}
	for k, v := range res.record {
		rec[k] = v
	}
	printJSON(map[string]any{"record": rec})
	printJSON(map[string]any{
		"correct":   res.correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// peakRSSMB is the process's peak resident set size in MB (10^6 bytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// roundLoop runs round until at least seconds have elapsed, always finishing
// the round in progress, and returns each round's duration. Every run thus
// attempts whole rounds of the same operations. after, if not nil, runs
// after every round, outside the round's timing.
func roundLoop(seconds float64, round func() error, after func()) ([]time.Duration, error) {
	var durs []time.Duration
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(durs) == 0 || time.Now().Before(deadline) {
		t0 := time.Now()
		if err := round(); err != nil {
			return durs, err
		}
		durs = append(durs, time.Since(t0))
		if after != nil {
			after()
		}
	}
	return durs, nil
}

// spreadRecord summarizes per-round rates for the record line.
func spreadRecord(rs []float64) map[string]float64 {
	s := append([]float64(nil), rs...)
	sort.Float64s(s)
	return map[string]float64{"min": s[0], "median": median(s), "max": s[len(s)-1]}
}

// measuredPhase is roundLoop for a run's untraced measured phase. It
// records the rounds' wall time and the CPU time the process spent in them
// (more than the wall time means both CPUs were busy), and peak_rss_mb as
// it stands at the phase's end, before the correctness checks build stores
// of their own. perRound, if not nil, runs after every round, outside the
// round's timing. When setup is not nil it takes set-up samples between
// the rounds and reports setup_s.
func measuredPhase(res *result, seconds float64, round func() error, perRound func(), setup *setupTimer) ([]time.Duration, error) {
	var cpu float64
	timed := func() error {
		c0 := cpuSeconds()
		err := round()
		cpu += cpuSeconds() - c0
		return err
	}
	var last time.Time
	after := func() {
		if perRound != nil {
			perRound()
		}
		if setup != nil {
			n := min(int(time.Since(last)/setupEvery), setupBurst)
			for i := 0; i < n; i++ {
				setup.sample()
			}
			if n > 0 {
				last = time.Now()
			}
		}
	}
	durs, err := roundLoop(seconds, timed, after)
	res.record["measured_wall_s"] = totalSeconds(durs)
	res.record["measured_cpu_s"] = cpu
	res.metrics["peak_rss_mb"] = peakRSSMB()
	if setup != nil {
		res.metrics["setup_s"] = median(setup.per)
		res.record["setup_samples"] = len(setup.per)
	}
	return durs, err
}

// Between two rounds the measured phase takes one set-up sample for every
// setupEvery since the last ones, but no more than setupBurst.
const (
	setupEvery = 500 * time.Millisecond
	setupBurst = 4
)

// setupTimer measures a workload's set-up. The host's speed drifts by
// tens of percent over fractions of a second, so the samples are spread
// over the whole measured phase, between its rounds, and setup_s is their
// median. Each sample starts and ends with a full collection, so no
// garbage of the rounds is swept inside it and none of its own is left to
// the next round. It calls build(0) .. build(calls-1), timing each call;
// what a call built is discarded, untimed, before the next call. A sample
// is the time of its calls divided by the set-ups they make together.
type setupTimer struct {
	calls  int
	setups float64
	build  func(i int) (discard func())
	per    []float64 // seconds per set-up, one entry per sample
}

func (s *setupTimer) sample() {
	runtime.GC()
	var d time.Duration
	for i := 0; i < s.calls; i++ {
		t0 := time.Now()
		discard := s.build(i)
		d += time.Since(t0)
		if discard != nil {
			discard()
		}
	}
	s.per = append(s.per, d.Seconds()/s.setups)
	runtime.GC()
}

// rates converts per-round durations to per-round rates of work/second.
func rates(work float64, durs []time.Duration) []float64 {
	out := make([]float64, len(durs))
	for i, d := range durs {
		out[i] = work / d.Seconds()
	}
	return out
}

// totalSeconds sums durations.
func totalSeconds(durs []time.Duration) float64 {
	var s float64
	for _, d := range durs {
		s += d.Seconds()
	}
	return s
}

// sortedKeys returns a map's keys in order, for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
