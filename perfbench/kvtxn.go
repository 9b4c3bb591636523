package main

import (
	"fmt"
	"sync"
	"time"

	"tokentm/stm"
	"tokentm/stm/kvstore"
)

// kv-txn: the sharded store in process, two closed-loop workers, the
// large-transaction mix. Each round every worker runs its whole stream.
const (
	kvTxnRoundOps = 100000 // per worker per round
	kvCheckOps    = 20000  // per worker, correctness phases
	samplerCap    = 1 << 16
)

// txnWorker runs generated operations through one ShardedHandle.
type txnWorker struct {
	store  *kvstore.Sharded
	h      *kvstore.ShardedHandle
	op     *kvOp
	cur    kvOp // the operation being run, read from a stream
	reads  []uint64
	writes []uint64
	fn     func(kvstore.Tx) error

	attemptBad int   // tag mismatches in the current attempt
	badTags    int64 // tag mismatches in committed operations
	failed     int64 // operations the store refused
	txns       int64 // multi-key transactions committed
	touched    int64 // shards those transactions drew serials on

	timed   [numOpKinds]bool     // kinds whose latency is recorded
	tracing bool                 // record per kind (lat), not end to end (e2e)
	lat     [numOpKinds]*sampler // traced: latency in ns per kind
	e2e     *sampler             // untraced: latency in ns of the timed kinds
	jr      journals             // nil unless journaling
	client  int
}

func newTxnWorker(s *kvstore.Sharded, worker int) *txnWorker {
	w := &txnWorker{
		store:  s,
		h:      s.Handle(worker).(*kvstore.ShardedHandle),
		reads:  make([]uint64, 0, batchReads),
		writes: make([]uint64, 0, batchReads),
		client: worker,
	}
	w.fn = func(tx kvstore.Tx) error {
		w.attemptBad = 0
		w.reads = w.reads[:0]
		for _, k := range w.op.keys {
			v, ok := tx.Get(k)
			if !tagOK(k, v, ok) {
				w.attemptBad++
			}
			w.reads = append(w.reads, v)
		}
		w.writes = computedWrites(w.op, w.reads, w.writes)
		for j, v := range w.writes {
			tx.Put(w.op.keys[j], v)
		}
		return nil
	}
	return w
}

// do runs one operation and returns the values it read (valid until the
// next call).
func (w *txnWorker) do(op *kvOp) []uint64 {
	timed := w.timed[op.kind]
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	switch op.kind {
	case opGet:
		k := op.keys[0]
		v, ok, shard, serial := w.h.GetSharded(k)
		if !tagOK(k, v, ok) {
			w.badTags++
		}
		w.reads = append(w.reads[:0], v)
		if w.jr != nil {
			w.jr[w.client][shard] = append(w.jr[w.client][shard], kvstore.JournalTxn{
				Serial: serial, Reads: []kvstore.JournalOp{{Key: k, Val: v, OK: ok}}})
		}
	case opPut:
		shard, serial := w.h.PutSharded(op.keys[0], op.vals[0])
		w.reads = w.reads[:0]
		if w.jr != nil {
			w.jr[w.client][shard] = append(w.jr[w.client][shard], kvstore.JournalTxn{
				Serial: serial, Writer: true, Writes: []kvstore.JournalOp{{Key: op.keys[0], Val: op.vals[0], OK: true}}})
		}
	default:
		w.op = op
		serials, err := w.h.TxnSerials(false, w.fn)
		if err != nil {
			w.failed++
			return nil
		}
		w.badTags += int64(w.attemptBad)
		w.txns++
		for _, sr := range serials {
			if sr != 0 {
				w.touched++
			}
		}
		if w.jr != nil {
			w.jr.journalTxn(w.client, w.store.ShardOf, serials, op, w.reads, w.writes)
		}
	}
	if timed {
		if d := time.Since(t0).Nanoseconds(); w.tracing {
			w.lat[op.kind].add(d)
		} else {
			w.e2e.add(d)
		}
	}
	return w.reads
}

// newLoadedStore builds the workload's store and loads the keyspace
// through a worker handle, the workload's own path.
func newLoadedStore(seed int64) *kvstore.Sharded {
	s := kvstore.NewSharded(kvShards, kvCapacity, kvWorkers, stm.DefaultOptions())
	h := s.Handle(0)
	for k := uint64(1); k <= kvKeys; k++ {
		h.Put(k, initialValue(seed, k))
	}
	return s
}

// runWorkers runs every worker over its stream concurrently and waits.
func runWorkers(ws []*txnWorker, streams []*opStream) {
	var wg sync.WaitGroup
	for i := range ws {
		wg.Add(1)
		go func(w *txnWorker, ops *opStream) {
			defer wg.Done()
			w.runStream(ops)
		}(ws[i], streams[i])
	}
	wg.Wait()
}

// runStream runs every operation of ops in order.
func (w *txnWorker) runStream(ops *opStream) {
	for j := 0; j < ops.len(); j++ {
		ops.at(j, &w.cur)
		w.do(&w.cur)
	}
}

func sumStats(s *kvstore.Sharded) stm.Stats {
	var t stm.Stats
	for i := 0; i < s.NumShards(); i++ {
		x := s.ShardSTMStats(i)
		t.Commits += x.Commits
		t.Aborts += x.Aborts
		t.Upgrades += x.Upgrades
		t.SlowReleases += x.SlowReleases
		t.ConflictWriter += x.ConflictWriter
		t.ConflictReader += x.ConflictReader
		t.ConflictAnon += x.ConflictAnon
		t.ConflictAborts += x.ConflictAborts
		t.DoomedAborts += x.DoomedAborts
		t.Dooms += x.Dooms
		t.SnapshotRetries += x.SnapshotRetries
	}
	return t
}

// stmLayerMetrics reports the protocol counters of a phase per 1k
// operations, and the commit ratio.
func stmLayerMetrics(res *result, before, after stm.Stats, ops int64) {
	per := func(a, b uint64) float64 { return float64(b-a) * 1000 / float64(ops) }
	m := res.metrics
	m["stm.conflict_writer"] = per(before.ConflictWriter, after.ConflictWriter)
	m["stm.conflict_reader"] = per(before.ConflictReader, after.ConflictReader)
	m["stm.conflict_anon"] = per(before.ConflictAnon, after.ConflictAnon)
	m["stm.conflict_aborts"] = per(before.ConflictAborts, after.ConflictAborts)
	m["stm.doomed_aborts"] = per(before.DoomedAborts, after.DoomedAborts)
	m["stm.dooms"] = per(before.Dooms, after.Dooms)
	m["stm.upgrades"] = per(before.Upgrades, after.Upgrades)
	m["stm.slow_releases"] = per(before.SlowReleases, after.SlowReleases)
	m["stm.snapshot_retries"] = per(before.SnapshotRetries, after.SnapshotRetries)
	commits := float64(after.Commits - before.Commits)
	aborts := float64(after.Aborts - before.Aborts)
	m["stm.commit_ratio"] = commits / (commits + aborts)
}

func runKVTxn(cfg runConfig) (*result, error) {
	res := newResult()
	store := newLoadedStore(cfg.seed)
	streams := make([]*opStream, kvWorkers)
	for w := range streams {
		streams[w] = genStream(cfg.seed, w, kvTxnRoundOps, txnMix)
	}
	ws := make([]*txnWorker, kvWorkers)
	for i := range ws {
		w := newTxnWorker(store, i)
		w.e2e = newSampler(samplerCap, uint64(cfg.seed)*31+uint64(i))
		// Untraced runs time the batches, the workload's large
		// transactions. Transfers are timed only when traced: with both in
		// one distribution the median fell near the batches' 13th
		// percentile, and moved with the share of transfers held up by a
		// conflict. Point operations take about as long as the clock reads
		// would.
		w.timed[opBatch] = true
		if cfg.trace {
			for _, k := range []opKind{opGet, opPut, opTransfer, opBatch} {
				w.lat[k] = newSampler(samplerCap, uint64(cfg.seed)*31+uint64(i)*7+uint64(k))
			}
		}
		ws[i] = w
	}
	round := func() error { runWorkers(ws, streams); return nil }
	roundOps := float64(kvWorkers * kvTxnRoundOps)

	pct := newRoundPercentiles(ws[0].e2e, ws[1].e2e)

	// One warm-up round, then the measured phase.
	round()
	pct.reset()
	rounds := 1
	phase := cfg.seconds
	if cfg.trace {
		phase = cfg.seconds / 2
	}
	var setup *setupTimer
	if !cfg.trace {
		setup = &setupTimer{calls: 1, setups: 1, build: func(int) func() {
			newLoadedStore(cfg.seed)
			return nil
		}}
	}
	var perRound func()
	if !cfg.trace {
		perRound = pct.take
	}
	durs, _ := measuredPhase(res, phase, round, perRound, setup)
	rounds += len(durs)
	untracedRate := median(rates(roundOps, durs))
	res.record["round_rates"] = spreadRecord(rates(roundOps, durs))

	if !cfg.trace {
		res.metrics["ops_s"] = untracedRate
		res.metrics["p50_us"] = median(pct.p50) / 1e3
		res.metrics["p99_us"] = median(pct.p99) / 1e3
		res.record["percentile_samples"] = pct.samples
		res.record["percentile_rounds"] = len(pct.p50)
		res.record["percentile_ops"] = "batch, median over rounds of each round's percentile"
	} else {
		for _, w := range ws {
			w.txns, w.touched = 0, 0
			w.tracing = true
			w.timed[opGet], w.timed[opPut], w.timed[opTransfer] = true, true, true
		}
		before := sumStats(store)
		tr, err := startTrace()
		if err != nil {
			return nil, err
		}
		tdurs, _ := roundLoop(phase, round, nil)
		tt, err := tr.stop()
		if err != nil {
			return nil, err
		}
		rounds += len(tdurs)
		after := sumStats(store)
		tracedOps := int64(roundOps) * int64(len(tdurs))
		tracedRate := median(rates(roundOps, tdurs))
		m := res.metrics
		samples := map[string]int{}
		for k, name := range map[opKind]string{opGet: "get", opPut: "put", opTransfer: "transfer", opBatch: "batch"} {
			s := merged(ws[0].lat[k], ws[1].lat[k])
			samples["kvstore."+name+"_ns"] = len(s)
			m["kvstore."+name+"_ns.p50"] = percentile(s, 50)
			m["kvstore."+name+"_ns.p99"] = percentile(s, 99)
		}
		res.record["percentile_samples"] = samples
		var txns, touched int64
		for _, w := range ws {
			txns += w.txns
			touched += w.touched
		}
		m["kvstore.shards_per_txn"] = float64(touched) / float64(txns)
		stmLayerMetrics(res, before, after, tracedOps)
		traceCommon(res, tt, float64(tracedOps), "op")
		traceOverhead(res, untracedRate, tracedRate)

		sharded, single, plain := singleWorkerCosts(cfg.seed, streams[0].prefix(kvCheckOps))
		m["kvstore.group_overhead_x"] = sharded / single
		m["stm.overhead_x"] = single / plain
		res.record["one_worker_ns_per_op"] = map[string]float64{"sharded4": sharded, "stm": single, "go_map": plain}
	}
	res.record["rounds"] = rounds
	res.record["round_ops"] = roundOps
	res.attempted = int64(rounds) * int64(roundOps)
	for _, w := range ws {
		res.failed += w.failed
		if w.badTags > 0 {
			res.fail("worker %d: %d reads returned a value of another key", w.client, w.badTags)
		}
	}

	checkTxnOneWorker(res, cfg.seed, streams[0].prefix(kvCheckOps))
	checkTxnJournals(res, cfg.seed, []*opStream{streams[0].prefix(kvCheckOps), streams[1].prefix(kvCheckOps)})
	return res, nil
}

// checkTxnOneWorker runs a stream at one worker on a fresh store in
// lockstep with the reference model: every read must equal the model's,
// and the final state and its checksum must match.
func checkTxnOneWorker(res *result, seed int64, ops *opStream) {
	store := newLoadedStore(seed)
	w := newTxnWorker(store, 0)
	ref := newModel(seed)
	op := &w.cur
	for i := 0; i < ops.len(); i++ {
		ops.at(i, op)
		got := w.do(op)
		want := ref.apply(op)
		for j := range want {
			if got[j] != want[j] {
				res.fail("one-worker check: op %d (%s) read key %d = %d, reference has %d",
					i, opNames[op.kind], op.keys[j], got[j], want[j])
				return
			}
		}
	}
	if err := compareState(storeState(store), ref); err != nil {
		res.fail("one-worker check: %v", err)
	}
	if got, want := kvstore.Checksum(store), checksum(ref); got != want {
		res.fail("one-worker check: store checksum %d, reference checksum %d", got, want)
	}
}

// checkTxnJournals runs the streams concurrently on a fresh store with
// every worker journaling its commits' serials, then replays the journals
// (serializability) and compares the final state with the replay.
func checkTxnJournals(res *result, seed int64, streams []*opStream) {
	store := kvstore.NewSharded(kvShards, kvCapacity, kvWorkers, stm.DefaultOptions())
	jr := newJournals(len(streams) + 1)
	loader := newTxnWorker(store, 0)
	loader.jr, loader.client = jr, len(streams)
	for k := uint64(1); k <= kvKeys; k++ {
		loader.do(&kvOp{kind: opPut, keys: []uint64{k}, vals: []uint64{initialValue(seed, k)}})
	}
	ws := make([]*txnWorker, len(streams))
	for i := range ws {
		ws[i] = newTxnWorker(store, i)
		ws[i].jr = jr
	}
	runWorkers(ws, streams)
	ref, err := jr.replay()
	if err != nil {
		res.fail("journal check: %v", err)
		return
	}
	if err := compareState(storeState(store), ref); err != nil {
		res.fail("journal check: %v", err)
	}
}

// singleWorkerCosts times ops at one worker, in ns per operation, on a
// fresh Sharded(4) store, on a single-TM stm store, and on an
// unsynchronized Go map, each through kvstore.Handle. Each figure is the
// median of three passes.
func singleWorkerCosts(seed int64, ops *opStream) (sharded, single, plain float64) {
	timeHandle := func(h kvstore.Handle) float64 {
		for k := uint64(1); k <= kvKeys; k++ {
			h.Put(k, initialValue(seed, k))
		}
		d := newHandleRunner(h)
		var passes []float64
		for p := 0; p < 3; p++ {
			t0 := time.Now()
			for i := 0; i < ops.len(); i++ {
				ops.at(i, &d.cur)
				d.do(&d.cur)
			}
			passes = append(passes, float64(time.Since(t0).Nanoseconds())/float64(ops.len()))
		}
		return median(passes)
	}
	sharded = timeHandle(kvstore.NewSharded(kvShards, kvCapacity, 1, stm.DefaultOptions()).Handle(0))
	single = timeHandle(kvstore.NewSTM(kvCapacity, 1).Handle(0))
	plain = timeHandle(mapHandle{m: make(map[uint64]uint64, kvKeys)})
	return sharded, single, plain
}

// handleRunner runs generated operations through any kvstore.Handle.
type handleRunner struct {
	h      kvstore.Handle
	op     *kvOp
	cur    kvOp
	reads  []uint64
	writes []uint64
	fn     func(kvstore.Tx) error
}

func newHandleRunner(h kvstore.Handle) *handleRunner {
	d := &handleRunner{h: h, reads: make([]uint64, 0, batchReads), writes: make([]uint64, 0, batchReads)}
	d.fn = func(tx kvstore.Tx) error {
		d.reads = d.reads[:0]
		for _, k := range d.op.keys {
			v, _ := tx.Get(k)
			d.reads = append(d.reads, v)
		}
		d.writes = computedWrites(d.op, d.reads, d.writes)
		for j, v := range d.writes {
			tx.Put(d.op.keys[j], v)
		}
		return nil
	}
	return d
}

func (d *handleRunner) do(op *kvOp) {
	switch op.kind {
	case opGet:
		d.h.Get(op.keys[0])
	case opPut:
		d.h.Put(op.keys[0], op.vals[0])
	default:
		d.op = op
		if _, err := d.h.Txn(false, d.fn); err != nil {
			panic(fmt.Sprintf("one-worker replay: %v", err))
		}
	}
}

// mapHandle is kvstore.Handle over an unsynchronized Go map: the cost of
// the same operations with no concurrency control at all.
type mapHandle struct{ m map[uint64]uint64 }

func (h mapHandle) Txn(_ bool, fn func(kvstore.Tx) error) (uint64, error) { return 0, fn(mapTx(h)) }

func (h mapHandle) Get(k uint64) (uint64, bool, uint64) {
	v, ok := h.m[k]
	return v, ok, 0
}

func (h mapHandle) Put(k, v uint64) uint64 {
	h.m[k] = v
	return 0
}

// mapTx is mapHandle's transaction view.
type mapTx struct{ m map[uint64]uint64 }

func (t mapTx) Get(k uint64) (uint64, bool) {
	v, ok := t.m[k]
	return v, ok
}

func (t mapTx) Put(k, v uint64) { t.m[k] = v }
