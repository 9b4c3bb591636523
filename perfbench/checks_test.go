package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"tokentm/stm/kvstore"
)

func TestPercentileKnownSamples(t *testing.T) {
	var s []int64
	for i := int64(100); i >= 1; i-- { // unsorted on purpose
		s = append(s, i)
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}, {99.5, 100}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]int64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := percentile([]int64{3, 1, 2, 10}, 50); got != 2 {
		t.Errorf("percentile({1,2,3,10}, 50) = %v, want 2", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8})
	if q1 != 1.25 || q3 != 7 {
		t.Errorf("quartiles({1,2,4,8}) = %v, %v, want 1.25, 7", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median({1,2,3,4}) = %v, want 2.5", m)
	}
}

func TestSamplerKeepsBoundedUniformSample(t *testing.T) {
	s := newSampler(1000, 1)
	for i := int64(0); i < 100000; i++ {
		s.add(i)
	}
	if len(s.buf) != 1000 || s.seen != 100000 {
		t.Fatalf("sampler kept %d of %d, want 1000 of 100000", len(s.buf), s.seen)
	}
	if p50 := percentile(s.buf, 50); p50 < 40000 || p50 > 60000 {
		t.Errorf("median of a uniform reservoir over 0..99999 = %v, want near 50000", p50)
	}
}

func TestRoundPercentilesTakeEachRound(t *testing.T) {
	a, b := newSampler(100, 1), newSampler(100, 2)
	r := newRoundPercentiles(a, b)
	for round := int64(0); round < 3; round++ {
		for i := int64(1); i <= 50; i++ { // 1..100 over the two samplers
			a.add(round*1000 + i)
			b.add(round*1000 + 50 + i)
		}
		r.take()
		if len(a.buf) != 0 || len(b.buf) != 0 {
			t.Fatalf("round %d: samplers not emptied", round)
		}
	}
	if !slices.Equal(r.p50, []float64{50, 1050, 2050}) || !slices.Equal(r.p99, []float64{99, 1099, 2099}) {
		t.Errorf("per-round p50 %v, p99 %v; want 50/1050/2050 and 99/1099/2099", r.p50, r.p99)
	}
	if r.samples != 300 {
		t.Errorf("samples = %d, want 300", r.samples)
	}
	if got := medianDurations([][]time.Duration{{3, 1, 2}, {10, 40}}); !slices.Equal(got, []int64{2, 25}) {
		t.Errorf("medianDurations = %v, want [2 25]", got)
	}
}

func TestCompareStateRejectsWrongFinalState(t *testing.T) {
	want := newModel(1)
	good := map[uint64]uint64{}
	for k, v := range want {
		good[k] = v
	}
	if err := compareState(good, want); err != nil {
		t.Fatalf("equal states rejected: %v", err)
	}
	wrongVal := map[uint64]uint64{}
	for k, v := range want {
		wrongVal[k] = v
	}
	wrongVal[17]++
	if compareState(wrongVal, want) == nil {
		t.Error("a changed value was accepted")
	}
	missing := map[uint64]uint64{}
	for k, v := range want {
		if k != 5 {
			missing[k] = v
		}
	}
	missing[kvKeys+1] = tagged(kvKeys+1, 0) // same size, different key set
	if compareState(missing, want) == nil {
		t.Error("a state with a replaced key was accepted")
	}
	if checksum(wrongVal) == checksum(want) {
		t.Error("checksum did not change with the state")
	}
}

func TestChecksumMatchesStoreDefinition(t *testing.T) {
	ref := newModel(3)
	store := newLoadedStore(3)
	if got, want := kvstore.Checksum(store), checksum(ref); got != want {
		t.Fatalf("store checksum %d, independent checksum of the same state %d", got, want)
	}
}

func TestTagRejectsCrossKeyValues(t *testing.T) {
	v := tagged(42, 12345)
	if !tagOK(42, v, true) {
		t.Error("a key's own value was rejected")
	}
	if tagOK(43, v, true) {
		t.Error("another key's value was accepted")
	}
	if tagOK(42, v, false) {
		t.Error("an absent preloaded key was accepted")
	}
	// Computed writes keep the tag.
	op := kvOp{kind: opTransfer, keys: []uint64{7, 9}, nonce: 5}
	for j, w := range computedWrites(&op, []uint64{tagged(7, 1), tagged(9, 2)}, nil) {
		if !tagOK(op.keys[j], w, true) {
			t.Errorf("transfer write %d = %#x lost its key tag", j, w)
		}
	}
}

func TestReplayRejectsBrokenJournal(t *testing.T) {
	shardOf := func(uint64) int { return 0 }
	op := &kvOp{kind: opTransfer, keys: []uint64{1, 2}}
	good := newJournals(2)
	good.journalTxn(0, shardOf, []uint64{1, 0, 0, 0}, op, nil, []uint64{tagged(1, 10), tagged(2, 20)})
	good.journalTxn(1, shardOf, []uint64{2, 0, 0, 0}, op, []uint64{tagged(1, 10), tagged(2, 20)},
		[]uint64{tagged(1, 11), tagged(2, 19)})
	ref, err := good.replay()
	if err != nil {
		t.Fatalf("consistent journal rejected: %v", err)
	}
	if ref[1] != tagged(1, 11) || ref[2] != tagged(2, 19) {
		t.Fatalf("replayed state %v", ref)
	}
	broken := newJournals(2)
	broken.journalTxn(0, shardOf, []uint64{1, 0, 0, 0}, op, nil, []uint64{tagged(1, 10), tagged(2, 20)})
	// Reads a value no earlier commit wrote.
	broken.journalTxn(1, shardOf, []uint64{2, 0, 0, 0}, op, []uint64{tagged(1, 99), tagged(2, 20)},
		[]uint64{tagged(1, 11), tagged(2, 19)})
	if _, err := broken.replay(); err == nil {
		t.Error("a journal with a read of an unwritten value was accepted")
	}
}

func TestOneWorkerCheckPassesOnTheStore(t *testing.T) {
	res := newResult()
	checkTxnOneWorker(res, 1, genStream(1, 0, 2000, txnMix))
	checkTxnJournals(res, 1, []*opStream{genStream(1, 0, 2000, txnMix), genStream(1, 1, 2000, txnMix)})
	if !res.correct {
		t.Fatalf("checks failed on the real store: %v", res.problems)
	}
}

func TestStreamsAreSeeded(t *testing.T) {
	a, b := genStream(9, 1, 500, txnMix), genStream(9, 1, 500, txnMix)
	c := genStream(10, 1, 500, txnMix)
	same := func(x, y *opStream) bool {
		var a, b kvOp
		for i := 0; i < x.len(); i++ {
			x.at(i, &a)
			y.at(i, &b)
			if a.kind != b.kind || a.nonce != b.nonce || !slices.Equal(a.keys, b.keys) || !slices.Equal(a.vals, b.vals) {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("the same seed gave different streams")
	}
	if same(a, c) {
		t.Error("different seeds gave the same stream")
	}
	var op kvOp
	for i := 0; i < a.len(); i++ {
		a.at(i, &op)
		if len(op.keys) != keysOf(op.kind) || len(op.vals) != valsOf(op.kind) {
			t.Fatalf("op %d (%s): %d keys and %d values", i, opNames[op.kind], len(op.keys), len(op.vals))
		}
		for j, k := range op.keys {
			if k < 1 || k > kvKeys {
				t.Fatalf("key %d outside 1..%d", k, kvKeys)
			}
			if slices.Contains(op.keys[j+1:], k) {
				t.Fatalf("op %d repeats key %d", i, k)
			}
		}
		for j, v := range op.vals {
			if !tagOK(op.keys[j], v, true) {
				t.Fatalf("op %d value %d = %#x does not carry key %d", i, j, v, op.keys[j])
			}
		}
	}
	if p := a.prefix(100); p.len() != 100 {
		t.Errorf("prefix(100) has %d operations", p.len())
	}
}

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"tokentm/stm/resp.(*Reader).ReadCommand":            "resp",
		"tokentm/stm/server.(*conn).dispatch":               "server",
		"tokentm/stm/kvstore.(*stmHandle).Get":              "kvstore",
		"tokentm/stm.(*Thread).Atomically":                  "stm",
		"tokentm/internal/sim.(*Machine).Run":               "sim",
		"tokentm/internal/core.(*TokenTM).Load":             "core",
		"tokentm/internal/metastate.Pack":                   "",
		"tokentm/internal/coherence.(*Directory).Access":    "memsys",
		"tokentm/internal/explore.exploreDFS":               "explore",
		"main.(*txnWorker).do":                              "bench",
		"runtime.mallocgc":                                  "gc",
		"runtime.gcBgMarkWorker":                            "gc",
		"runtime.chanrecv":                                  "runtime_sched",
		"runtime.netpoll":                                   "net_syscall",
		"internal/runtime/syscall.Syscall6":                 "net_syscall",
		"runtime.memmove":                                   "",
		"tokentm/internal/statehash.(*Hash).U64":            "",
		"sync/atomic.(*Uint64).Load":                        "",
		"tokentm/internal/sim.(*Machine).Run.func1.gowrap1": "sim",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestStackBucketChargesHelpersToCaller(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"bufio.(*Reader).ReadByte", "tokentm/stm/resp.(*Reader).ReadCommand", "tokentm/stm/server.(*conn).serve"}, "resp"},
		{[]string{"sync/atomic.(*Uint64).Load", "tokentm/stm.(*Thread).Snapshot2", "tokentm/stm/kvstore.(*stmHandle).Get"}, "stm"},
		{[]string{"runtime.memmove", "runtime.mallocgc", "tokentm/stm/resp.(*Reader).ReadReply"}, "gc"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.read", "internal/poll.(*FD).Read"}, "net_syscall"},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep"}, "runtime_sched"},
		{[]string{"runtime.memmove", "sort.Slice"}, "other"},
		{nil, "other"},
	} {
		if got := stackBucket(c.frames); got != c.want {
			t.Errorf("stackBucket(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

func TestParseTraces(t *testing.T) {
	text := `File: perfbench
Type: samples
Duration: 401.36ms, Total samples = 8
-----------+-------------------------------------------------------
         5   main.busy (inline)
             main.main
             runtime.main
-----------+-------------------------------------------------------
      kind:  a
         3   runtime.mallocgc
             tokentm/stm/resp.(*Reader).ReadReply
-----------+-------------------------------------------------------
`
	got, err := parseTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := []stack{
		{frames: []string{"main.busy", "main.main", "runtime.main"}, n: 5},
		{frames: []string{"runtime.mallocgc", "tokentm/stm/resp.(*Reader).ReadReply"}, n: 3},
		{},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d samples, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i].n != want[i].n || !slices.Equal(got[i].frames, want[i].frames) {
			t.Errorf("sample %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestCPUProfileBucketsSumTo100(t *testing.T) {
	tr, err := startTrace()
	if err != nil {
		t.Fatal(err)
	}
	x := 0
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	sink = x
	tt, err := tr.stop()
	if err != nil {
		t.Fatal(err)
	}
	if tt.cpuSamples == 0 {
		t.Skip("no CPU samples taken")
	}
	var sum float64
	for _, b := range cpuBuckets {
		sum += tt.cpu[b]
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("buckets sum to %v, want 100", sum)
	}
	if tt.cpu["bench"] == 0 {
		t.Errorf("a busy loop in package main left bench at 0: %v", tt.cpu)
	}
}

var sink int

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
}
