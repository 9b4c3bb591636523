package main

import (
	"fmt"
	"math/rand"
	"sort"

	"tokentm/stm/kvstore"
)

// The KV workloads' input make-up: a zipfian (s = 1.1) choice over a
// preloaded keyspace, on a 4-shard store, driven by two closed-loop
// workers. Both KV workloads share these so their figures compare.
const (
	kvKeys     = 32768
	kvZipfS    = 1.1
	kvShards   = 4
	kvCapacity = 2 * kvKeys // total slots: load factor 0.5
	kvWorkers  = 2
	batchReads = 32
	batchWrite = 8
)

type opKind uint8

const (
	opGet      opKind = iota // point read
	opPut                    // point blind write
	opTransfer               // txn: read 2 keys, write both (computed)
	opBatch                  // txn: read 32 keys, write the first 8 (computed)
	opMulti                  // wire MULTI: MGET 2 keys, MSET both (blind)
	numOpKinds
)

var opNames = [numOpKinds]string{"get", "put", "transfer", "batch", "multi"}

// kvOp is one generated operation, as the workers see it. Its key and
// value slices alias the storage of the opStream it was read from.
type kvOp struct {
	kind  opKind
	keys  []uint64
	vals  []uint64 // blind-write values (put, multi)
	nonce uint64   // input to computed writes (transfer, batch)
}

// keysOf and valsOf are how many keys an operation of a kind touches and
// how many blind-write values it carries.
func keysOf(k opKind) int {
	switch k {
	case opTransfer, opMulti:
		return 2
	case opBatch:
		return batchReads
	}
	return 1
}

func valsOf(k opKind) int {
	switch k {
	case opPut:
		return 1
	case opMulti:
		return 2
	}
	return 0
}

// opStream stores a generated stream compactly, so that the benchmark's
// own inputs weigh little beside the store in peak_rss_mb: per operation
// its kind, its nonce and the end of its words in data, where each
// operation's keys are followed by its blind-write values.
type opStream struct {
	kinds  []opKind
	nonces []uint64
	ends   []uint32
	data   []uint64
}

func (s *opStream) len() int { return len(s.kinds) }

// at fills op with operation i. The view is valid while s is.
func (s *opStream) at(i int, op *kvOp) {
	var a uint32
	if i > 0 {
		a = s.ends[i-1]
	}
	b := s.ends[i]
	k := s.kinds[i]
	v := b - uint32(valsOf(k))
	*op = kvOp{kind: k, keys: s.data[a:v:v], vals: s.data[v:b:b], nonce: s.nonces[i]}
}

// prefix is the stream's first n operations.
func (s *opStream) prefix(n int) *opStream {
	return &opStream{s.kinds[:n], s.nonces[:n], s.ends[:n], s.data[:s.ends[n-1]]}
}

// Every value carries its key in the high 32 bits, so a read that returns
// another key's value is caught wherever it happens.
func tagged(key, low uint64) uint64 { return key<<32 | low&0xffffffff }

func low(v uint64) uint64 { return v & 0xffffffff }

// tagOK reports whether a read of key returned a value that belongs to it.
// Every key is preloaded, so absent is wrong too.
func tagOK(key, v uint64, ok bool) bool { return ok && v>>32 == key }

// initialValue is the value the keyspace load writes for key.
func initialValue(seed int64, key uint64) uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + key
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 29
	return tagged(key, x)
}

// mix is one operation mix: a percentage per kind, adding up to 100.
type mix []struct {
	kind opKind
	pct  int
}

// txnMix is kv-txn's large-transaction mix.
var txnMix = mix{{opGet, 58}, {opPut, 20}, {opTransfer, 10}, {opBatch, 12}}

// netMix is kv-net's read-heavy wire mix.
var netMix = mix{{opGet, 90}, {opPut, 8}, {opMulti, 2}}

// pick returns the kind a uniform draw p in [0, 100) selects.
func (m mix) pick(p int) opKind {
	acc := 0
	for _, e := range m {
		acc += e.pct
		if p < acc {
			return e.kind
		}
	}
	return m[len(m)-1].kind
}

// genStream generates worker's n operations of the given mix from seed.
// The same (seed, worker, n, mix) always gives the same stream. Keys within
// one operation are distinct.
func genStream(seed int64, worker, n int, m mix) *opStream {
	r := rand.New(rand.NewSource(seed*1000003 + int64(worker)*7919 + 17))
	z := rand.NewZipf(r, kvZipfS, 1, kvKeys-1)
	s := &opStream{kinds: make([]opKind, n), nonces: make([]uint64, n), ends: make([]uint32, n)}
	// Sized from the mix's mean words per operation with 5% to spare, so
	// that appending never reallocates: a stream leaves no garbage behind
	// to raise peak_rss_mb.
	var words float64
	for _, e := range m {
		words += float64(e.pct*(keysOf(e.kind)+valsOf(e.kind))) / 100
	}
	data := make([]uint64, 0, int(1.05*words*float64(n))+batchReads)
	for i := 0; i < n; i++ {
		k := m.pick(r.Intn(100))
		start := len(data)
		for len(data)-start < keysOf(k) {
			if key := z.Uint64() + 1; !contains(data[start:], key) {
				data = append(data, key)
			}
		}
		for j := 0; j < valsOf(k); j++ {
			data = append(data, tagged(data[start+j], r.Uint64()))
		}
		s.kinds[i], s.nonces[i], s.ends[i] = k, r.Uint64(), uint32(len(data))
	}
	s.data = data
	return s
}

func contains(xs []uint64, x uint64) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// computedWrites derives a transfer's or batch's written values from the
// values it read (reads[i] is the value of op.keys[i]); writes go to
// op.keys[:len(result)]. Blind-write kinds return op.vals.
func computedWrites(op *kvOp, reads []uint64, dst []uint64) []uint64 {
	dst = dst[:0]
	switch op.kind {
	case opPut, opMulti:
		return append(dst, op.vals...)
	case opTransfer:
		amt := op.nonce % 1000
		dst = append(dst, tagged(op.keys[0], low(reads[0])-amt))
		return append(dst, tagged(op.keys[1], low(reads[1])+amt))
	case opBatch:
		var sum uint64
		for _, v := range reads {
			sum += low(v)
		}
		for j := 0; j < batchWrite; j++ {
			dst = append(dst, tagged(op.keys[j], sum+uint64(j)+op.nonce))
		}
		return dst
	}
	return dst
}

// model is the reference store: a plain Go map with the benchmark's own
// semantics for every operation kind. It shares no code with the program.
type model map[uint64]uint64

func newModel(seed int64) model {
	m := make(model, kvKeys)
	for k := uint64(1); k <= kvKeys; k++ {
		m[k] = initialValue(seed, k)
	}
	return m
}

// apply runs op against the model and returns the values it read, one per
// read key (nil for a blind write).
func (m model) apply(op *kvOp) []uint64 {
	var reads []uint64
	switch op.kind {
	case opGet, opTransfer, opBatch, opMulti:
		for _, k := range op.keys {
			reads = append(reads, m[k])
		}
	}
	ws := computedWrites(op, reads, nil)
	for j, v := range ws {
		m[op.keys[j]] = v
	}
	return reads
}

// checksum folds a key/value state into one FNV-1a word in sorted key
// order, each word little-endian: the definition the server's CHECKSUM
// command documents, written out here independently of the program.
func checksum(state map[uint64]uint64) uint64 {
	keys := make([]uint64, 0, len(state))
	for k := range state {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	h := uint64(14695981039346656037)
	word := func(x uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (x >> s) & 0xff
			h *= 1099511628211
		}
	}
	for _, k := range keys {
		word(k)
		word(state[k])
	}
	return h
}

// compareState reports the first difference between a store's final state
// and the reference, or nil.
func compareState(got, want map[uint64]uint64) error {
	if len(got) != len(want) {
		return fmt.Errorf("final state has %d keys, reference has %d", len(got), len(want))
	}
	for _, k := range sortedU64(want) {
		if g, ok := got[k]; !ok || g != want[k] {
			return fmt.Errorf("final state key %d = %d (present %v), reference has %d", k, g, ok, want[k])
		}
	}
	return nil
}

func sortedU64(m map[uint64]uint64) []uint64 {
	ks := make([]uint64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// storeState copies a quiescent store's committed state.
func storeState(s kvstore.Snapshotter) map[uint64]uint64 {
	out := map[uint64]uint64{}
	s.ForEach(func(k, v uint64) { out[k] = v })
	return out
}

// journals collects per-shard commit journals from several clients, for
// kvstore.ReplayJournals: journals[client][shard].
type journals [][][]kvstore.JournalTxn

func newJournals(clients int) journals {
	j := make(journals, clients)
	for c := range j {
		j[c] = make([][]kvstore.JournalTxn, kvShards)
	}
	return j
}

// journalTxn files one committed multi-key operation under every shard it
// drew a serial on: that shard's reads and writes, writer if it wrote there.
func (j journals) journalTxn(client int, shardOf func(uint64) int, serials []uint64, op *kvOp, reads, writes []uint64) {
	for shard, serial := range serials {
		if serial == 0 {
			continue
		}
		rec := kvstore.JournalTxn{Serial: serial}
		for i, k := range op.keys[:len(reads)] {
			if shardOf(k) == shard {
				rec.Reads = append(rec.Reads, kvstore.JournalOp{Key: k, Val: reads[i], OK: true})
			}
		}
		for i, v := range writes {
			if k := op.keys[i]; shardOf(k) == shard {
				rec.Writes = append(rec.Writes, kvstore.JournalOp{Key: k, Val: v, OK: true})
				rec.Writer = true
			}
		}
		j[client][shard] = append(j[client][shard], rec)
	}
}

// replay checks the journals for serializability shard by shard and
// returns the final state they imply.
func (j journals) replay() (map[uint64]uint64, error) {
	ref := map[uint64]uint64{}
	for shard := 0; shard < kvShards; shard++ {
		per := make([][]kvstore.JournalTxn, len(j))
		for c := range j {
			per[c] = j[c][shard]
		}
		st, err := kvstore.ReplayJournals(per)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", shard, err)
		}
		for k, v := range st {
			ref[k] = v
		}
	}
	return ref, nil
}
