package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
)

// tracer collects the process-wide half of a traced phase: a CPU profile
// attributed by package, plus runtime/metrics deltas (goroutine scheduling
// events and allocated bytes).
type tracer struct {
	prof           *os.File
	sched0, alloc0 uint64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/sched/latencies:seconds"},
	{Name: "/gc/heap/allocs:bytes"},
}

// readRuntime returns the scheduling-event count (goroutines made to run)
// and the cumulative bytes allocated.
func readRuntime() (sched, alloc uint64) {
	metrics.Read(runtimeSamples)
	if h := runtimeSamples[0].Value; h.Kind() == metrics.KindFloat64Histogram {
		for _, c := range h.Float64Histogram().Counts {
			sched += c
		}
	}
	if v := runtimeSamples[1].Value; v.Kind() == metrics.KindUint64 {
		alloc = v.Uint64()
	}
	return sched, alloc
}

// startTrace starts the CPU profile, into a file under the temporary
// directory (run.sh points TMPDIR into the checkout's .bench_build).
func startTrace() (*tracer, error) {
	f, err := os.CreateTemp("", "perfbench-cpu-*.pprof")
	if err != nil {
		return nil, err
	}
	t := &tracer{prof: f}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	t.sched0, t.alloc0 = readRuntime()
	return t, nil
}

// traceTotals is what a traced phase measured process-wide.
type traceTotals struct {
	schedEvents float64
	allocBytes  float64
	cpu         map[string]float64 // bucket -> % of samples
	cpuSamples  int64
	otherTop    []string // the "other" bucket's largest leaf functions
}

func (t *tracer) stop() (traceTotals, error) {
	s1, a1 := readRuntime()
	pprof.StopCPUProfile()
	tt := traceTotals{schedEvents: float64(s1 - t.sched0), allocBytes: float64(a1 - t.alloc0)}
	defer os.Remove(t.prof.Name())
	if err := t.prof.Close(); err != nil {
		return tt, err
	}
	stacks, err := profileStacks(t.prof.Name())
	if err != nil {
		return tt, err
	}
	tt.cpu, tt.cpuSamples = bucketShares(stacks)
	tt.otherTop = topOther(stacks, tt.cpuSamples, 5)
	return tt, nil
}

// traceCommon reports the process-wide figures of a traced phase: cpu
// buckets, and scheduling events and allocated bytes per unit of work.
func traceCommon(res *result, tt traceTotals, work float64, unit string) {
	for _, b := range cpuBuckets {
		res.metrics["cpu."+b] = tt.cpu[b]
	}
	res.metrics["go.sched_events_per_"+unit] = tt.schedEvents / work
	res.metrics["go.alloc_bytes_per_"+unit] = tt.allocBytes / work
	res.record["cpu_samples"] = tt.cpuSamples
	res.record["cpu_other_top"] = tt.otherTop
}

// traceOverhead reports the traced phase's rate and how far tracing
// lowered it below the untraced phase of the same run.
func traceOverhead(res *result, untraced, traced float64) {
	res.metrics["trace.ops_s"] = traced
	res.metrics["trace.overhead_pct"] = 100 * (untraced - traced) / untraced
	res.record["untraced_ops_s"] = untraced
}

// cpuBuckets are the self-time buckets, in report order.
var cpuBuckets = []string{
	"resp", "server", "kvstore", "stm", "sim", "core", "logtmse", "sig",
	"memsys", "attr", "workload", "explore", "net_syscall", "runtime_sched",
	"gc", "bench", "other",
}

// stack is one profile sample: its frames, innermost first (inlined
// frames included), and its sample count.
type stack struct {
	frames []string
	n      int64
}

// stackBucket attributes a sample to the bucket of its innermost frame that
// has one. Frames of packages without a bucket — standard-library helpers
// such as bufio, strconv or sync/atomic, the runtime's memmove and map
// code, and repository packages such as internal/htm — are charged to the
// module that called them.
func stackBucket(frames []string) string {
	for _, fn := range frames {
		if b := bucketOf(fn); b != "" {
			return b
		}
	}
	return "other"
}

// bucketShares folds samples into cpu buckets, as percentages of all
// samples. Every bucket is present; they sum to 100 whenever there is at
// least one sample.
func bucketShares(stacks []stack) (map[string]float64, int64) {
	raw := map[string]int64{}
	var total int64
	for _, st := range stacks {
		raw[stackBucket(st.frames)] += st.n
		total += st.n
	}
	out := map[string]float64{}
	for _, b := range cpuBuckets {
		if total > 0 {
			out[b] = 100 * float64(raw[b]) / float64(total)
		} else {
			out[b] = 0
		}
	}
	return out, total
}

// topOther lists the n innermost functions with the most samples among
// the samples attributed to "other", with their share of all samples.
func topOther(stacks []stack, total int64, n int) []string {
	counts := map[string]int64{}
	for _, st := range stacks {
		if len(st.frames) > 0 && stackBucket(st.frames) == "other" {
			counts[st.frames[0]] += st.n
		}
	}
	fns := make([]string, 0, len(counts))
	for fn := range counts {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool {
		if counts[fns[i]] != counts[fns[j]] {
			return counts[fns[i]] > counts[fns[j]]
		}
		return fns[i] < fns[j]
	})
	if len(fns) > n {
		fns = fns[:n]
	}
	out := make([]string, len(fns))
	for i, fn := range fns {
		out[i] = fmt.Sprintf("%s %.1f%%", fn, 100*float64(counts[fn])/float64(total))
	}
	return out
}

// pkgBuckets maps an import path to its bucket. Longest match wins, so
// tokentm/stm/resp is not counted as tokentm/stm.
var pkgBuckets = map[string]string{
	"tokentm/stm/resp":              "resp",
	"tokentm/stm/server":            "server",
	"tokentm/stm/kvstore":           "kvstore",
	"tokentm/stm":                   "stm",
	"tokentm/internal/sim":          "sim",
	"tokentm/internal/core":         "core",
	"tokentm/internal/logtmse":      "logtmse",
	"tokentm/internal/sig":          "sig",
	"tokentm/internal/cache":        "memsys",
	"tokentm/internal/coherence":    "memsys",
	"tokentm/internal/mem":          "memsys",
	"tokentm/internal/interconnect": "memsys",
	"tokentm/internal/attr":         "attr",
	"tokentm/internal/workload":     "workload",
	"tokentm/internal/explore":      "explore",
	"main":                          "bench",
	"tokentm/perfbench":             "bench", // the same code, in its test binary
	"syscall":                       "net_syscall",
	"internal/poll":                 "net_syscall",
	"internal/runtime/syscall":      "net_syscall",
	"runtime/internal/syscall":      "net_syscall",
	"net":                           "net_syscall",
	"os":                            "net_syscall",
}

// runtimeSched and runtimeGC classify runtime functions by name prefix
// (after "runtime."): goroutine scheduling, parking, channel hand-off and
// its locks; the collector and the allocator.
var runtimeSched = []string{
	"schedule", "findRunnable", "park_m", "gopark", "goready", "ready",
	"runq", "stealWork", "wakep", "startm", "stopm", "handoffp", "notesleep",
	"notewakeup", "futex", "mcall", "gosched", "goschedImpl", "chansend",
	"chanrecv", "selectgo", "send", "recv", "lock2", "unlock2", "lock",
	"unlock", "casgstatus", "execute", "gogo", "goexit", "newproc",
	"systemstack", "usleep", "osyield", "procyield", "resetspinning",
	"checkTimers", "(*timers)", "acquirep", "releasep", "exitsyscall",
	"entersyscall", "reentersyscall", "semacquire", "semrelease", "(*waitq)",
	"goroutineReady", "dropg", "injectglist", "netpollblock", "mPark",
	"(*hchan)", "closechan",
}

var runtimeGC = []string{
	"gc", "mark", "scanobject", "scanblock", "scanstack", "greyobject",
	"findObject", "sweep", "(*sweepLocked)", "(*mspan)", "(*mheap)",
	"(*mcentral)", "(*mcache)", "mallocgc", "nextFreeFast", "newobject",
	"newarray", "makeslice", "growslice", "heapBits", "wbBuf", "bulkBarrier",
	"(*gcWork)", "(*gcControllerState)", "bgsweep", "bgscavenge",
	"(*pageAlloc)", "(*scavenger", "memclrNoHeapPointers", "(*spanSet)",
	"typePointers", "(*mspan", "deductAssistCredit", "publicationBarrier",
}

// pkgOf returns the import path of a Go symbol name such as
// "tokentm/stm/resp.(*Reader).ReadCommand".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// bucketOf returns the cpu bucket of a function, or "" for a function
// whose time belongs to its caller's module.
func bucketOf(fn string) string {
	pkg := pkgOf(fn)
	if pkg == "runtime" {
		name := fn[len("runtime."):]
		if strings.HasPrefix(name, "netpoll") || strings.HasPrefix(name, "epoll") {
			return "net_syscall"
		}
		for _, p := range runtimeGC {
			if strings.HasPrefix(name, p) {
				return "gc"
			}
		}
		for _, p := range runtimeSched {
			if strings.HasPrefix(name, p) {
				return "runtime_sched"
			}
		}
		return ""
	}
	best, bucket := -1, ""
	for p, b := range pkgBuckets {
		if (pkg == p || strings.HasPrefix(pkg, p+"/")) && len(p) > best {
			best, bucket = len(p), b
		}
	}
	return bucket
}

// profileStacks returns the samples of a CPU profile file, read with
// `go tool pprof -traces`: each sample's frames, innermost first (inlined
// frames included), and its sample count.
func profileStacks(path string) ([]stack, error) {
	out, err := exec.Command("go", "tool", "pprof", "-sample_index=samples", "-traces", path).Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			err = fmt.Errorf("%w: %s", err, bytes.TrimSpace(ee.Stderr))
		}
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTraces(string(out))
}

// parseTraces parses the text of `go tool pprof -traces`. After each
// separator line comes one sample: label lines ("%10s:  %s"), then its
// frames, one a line, innermost first, the first carrying the value in the
// ten columns before the name.
func parseTraces(text string) ([]stack, error) {
	var out []stack
	in := false
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, "-----------+"):
			in = true
			out = append(out, stack{})
			continue
		case !in || len(line) < 14 || line[10] == ':':
			continue
		}
		st := &out[len(out)-1]
		if v := strings.TrimSpace(line[:10]); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("go tool pprof: sample count %q: %w", v, err)
			}
			st.n = n
		}
		st.frames = append(st.frames, strings.TrimSuffix(line[13:], " (inline)"))
	}
	return out, nil
}
