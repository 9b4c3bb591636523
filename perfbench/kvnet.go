package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tokentm/stm/kvstore"
	"tokentm/stm/resp"
	"tokentm/stm/server"
)

// kv-net: the RESP server on a loopback listener, two closed-loop client
// connections, the read-heavy mix. Each round every client runs its whole
// stream.
const (
	kvNetRoundOps  = 10000 // per client per round
	kvNetCheckOps  = 5000  // per client, correctness phases
	loadBatch      = 512   // pipelined SETs per flush while loading
	captureBytes   = 256 << 10
	replyShapesCap = 4096
)

// netServer is a running server.Server on a loopback listener.
type netServer struct {
	srv  *server.Server
	addr string
	cl   *countingListener // nil unless counting
	done chan error
}

func startServer(counting bool) (*netServer, error) {
	srv, err := server.New(server.Config{Shards: kvShards, Capacity: kvCapacity, MaxConns: 8})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &netServer{srv: srv, addr: ln.Addr().String(), done: make(chan error, 1)}
	var l net.Listener = ln
	if counting {
		s.cl = &countingListener{Listener: ln}
		l = s.cl
	}
	go func() { s.done <- srv.Serve(l) }()
	return s, nil
}

// startLoadedServer starts a server and loads the keyspace through the
// wire.
func startLoadedServer(seed int64, counting bool) (*netServer, error) {
	s, err := startServer(counting)
	if err != nil {
		return nil, err
	}
	if err := loadKeys(s, seed, nil, 0); err != nil {
		s.stop()
		return nil, fmt.Errorf("loading keys: %w", err)
	}
	return s, nil
}

// stop drains the server and waits for Serve to return.
func (s *netServer) stop() error {
	s.srv.Shutdown()
	return <-s.done
}

// netClient is the benchmark's own RESP client: it encodes commands and
// parses the replies of the server's wire contract without allocating, so
// the client's cost stays the same whatever the server's codec does.
type netClient struct {
	nc   net.Conn
	br   *bufio.Reader
	out  []byte
	num  []byte
	line []byte

	reads   []uint64
	serials []uint64
	shard   int
	serial  uint64

	badTags int64
	rttSum  int64
	rttN    int64
	e2e     *sampler             // untraced: every operation's round trip, ns
	lat     [numOpKinds]*sampler // traced: round trip per kind, ns
	tracing bool
	shapes  []replyShape // traced: replies seen, for the encode replay

	jr      journals // nil unless journaling
	client  int
	shardOf func(uint64) int
}

// replyShape is one operation's reply, kept to replay through resp.Writer.
type replyShape struct {
	kind    opKind
	vals    [2]uint64
	shard   int
	serial  uint64
	serials [kvShards]uint64
}

func dialClient(addr string, client int) (*netClient, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &netClient{nc: nc, br: bufio.NewReaderSize(nc, 16<<10), client: client,
		reads: make([]uint64, 0, 2), serials: make([]uint64, 0, kvShards)}, nil
}

func (c *netClient) close() { c.nc.Close() }

func (c *netClient) cmd(n int) {
	c.out = append(c.out, '*')
	c.out = strconv.AppendInt(c.out, int64(n), 10)
	c.out = append(c.out, '\r', '\n')
}

func (c *netClient) word(w string) {
	c.out = append(c.out, '$')
	c.out = strconv.AppendInt(c.out, int64(len(w)), 10)
	c.out = append(c.out, '\r', '\n')
	c.out = append(c.out, w...)
	c.out = append(c.out, '\r', '\n')
}

func (c *netClient) uint(x uint64) {
	c.num = strconv.AppendUint(c.num[:0], x, 10)
	c.out = append(c.out, '$')
	c.out = strconv.AppendInt(c.out, int64(len(c.num)), 10)
	c.out = append(c.out, '\r', '\n')
	c.out = append(c.out, c.num...)
	c.out = append(c.out, '\r', '\n')
}

// encode appends op's request frames to c.out.
func (c *netClient) encode(op *kvOp) {
	switch op.kind {
	case opGet:
		c.cmd(2)
		c.word("GET")
		c.uint(op.keys[0])
	case opPut:
		c.cmd(3)
		c.word("SET")
		c.uint(op.keys[0])
		c.uint(op.vals[0])
	case opMulti:
		c.cmd(1)
		c.word("MULTI")
		c.cmd(3)
		c.word("MGET")
		c.uint(op.keys[0])
		c.uint(op.keys[1])
		c.cmd(5)
		c.word("MSET")
		c.uint(op.keys[0])
		c.uint(op.vals[0])
		c.uint(op.keys[1])
		c.uint(op.vals[1])
		c.cmd(1)
		c.word("EXEC")
	default:
		panic("kv-net: no wire form for " + opNames[op.kind])
	}
}

var errReply = errors.New("unexpected reply")

// header reads one reply header: its type byte and the integer after it
// (array count, bulk length or integer value); simple strings and errors
// leave their text in c.line.
func (c *netClient) header() (byte, int64, error) {
	t, err := c.br.ReadByte()
	if err != nil {
		return 0, 0, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, 0, err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return 0, 0, errReply
	}
	line = line[:len(line)-2]
	switch t {
	case '+', '-':
		c.line = append(c.line[:0], line...)
		if t == '-' {
			return 0, 0, fmt.Errorf("server error reply: %s", c.line)
		}
		return t, 0, nil
	case ':', '*', '$':
		n, err := strconv.ParseInt(string(line), 10, 64) // no allocation: the conversion does not escape
		if err != nil {
			return 0, 0, errReply
		}
		return t, n, nil
	}
	return 0, 0, errReply
}

func (c *netClient) expect(t byte, n int64) error {
	gt, gn, err := c.header()
	if err != nil {
		return err
	}
	if gt != t || gn != n {
		return fmt.Errorf("%w: got %c%d, want %c%d", errReply, gt, gn, t, n)
	}
	return nil
}

func (c *netClient) simple(want string) error {
	t, _, err := c.header()
	if err != nil {
		return err
	}
	if t != '+' || string(c.line) != want {
		return fmt.Errorf("%w: got %c%s, want +%s", errReply, t, c.line, want)
	}
	return nil
}

func (c *netClient) integer() (int64, error) {
	t, n, err := c.header()
	if err != nil {
		return 0, err
	}
	if t != ':' {
		return 0, fmt.Errorf("%w: got %c, want an integer", errReply, t)
	}
	return n, nil
}

// bulkUint reads a bulk value; ok is false for the null bulk.
func (c *netClient) bulkUint() (v uint64, ok bool, err error) {
	t, n, err := c.header()
	if err != nil {
		return 0, false, err
	}
	if t != '$' {
		return 0, false, fmt.Errorf("%w: got %c, want a bulk", errReply, t)
	}
	if n == -1 {
		return 0, false, nil
	}
	body, err := c.br.Peek(int(n) + 2)
	if err != nil {
		return 0, false, err
	}
	v, err = strconv.ParseUint(string(body[:n]), 10, 64)
	if err != nil {
		return 0, false, errReply
	}
	_, err = c.br.Discard(int(n) + 2)
	return v, true, err
}

func (c *netClient) serialArray() error {
	if err := c.expect('*', kvShards); err != nil {
		return err
	}
	c.serials = c.serials[:0]
	for i := 0; i < kvShards; i++ {
		s, err := c.integer()
		if err != nil {
			return err
		}
		c.serials = append(c.serials, uint64(s))
	}
	return nil
}

// do sends one operation, waits for and checks its reply, and returns the
// values it read (valid until the next call).
func (c *netClient) do(op *kvOp) ([]uint64, error) {
	c.out = c.out[:0]
	c.encode(op)
	t0 := time.Now()
	if _, err := c.nc.Write(c.out); err != nil {
		return nil, err
	}
	c.reads = c.reads[:0]
	switch op.kind {
	case opGet:
		if err := c.expect('*', 3); err != nil {
			return nil, err
		}
		v, ok, err := c.bulkUint()
		if err != nil {
			return nil, err
		}
		if !tagOK(op.keys[0], v, ok) {
			c.badTags++
		}
		c.reads = append(c.reads, v)
		if err := c.shardSerial(); err != nil {
			return nil, err
		}
	case opPut:
		if err := c.expect('*', 2); err != nil {
			return nil, err
		}
		if err := c.shardSerial(); err != nil {
			return nil, err
		}
	case opMulti:
		for _, w := range [...]string{"OK", "QUEUED", "QUEUED"} {
			if err := c.simple(w); err != nil {
				return nil, err
			}
		}
		for _, n := range [...]int64{2, 2, 2} { // EXEC reply, results, MGET result
			if err := c.expect('*', n); err != nil {
				return nil, err
			}
		}
		for _, k := range op.keys {
			v, ok, err := c.bulkUint()
			if err != nil {
				return nil, err
			}
			if !tagOK(k, v, ok) {
				c.badTags++
			}
			c.reads = append(c.reads, v)
		}
		if err := c.simple("OK"); err != nil {
			return nil, err
		}
		if err := c.serialArray(); err != nil {
			return nil, err
		}
	}
	d := time.Since(t0).Nanoseconds()
	c.rttSum += d
	c.rttN++
	if c.tracing {
		c.lat[op.kind].add(d)
		if len(c.shapes) < cap(c.shapes) {
			c.shapes = append(c.shapes, c.shape(op))
		}
	} else if c.e2e != nil {
		c.e2e.add(d)
	}
	if c.jr != nil {
		c.journal(op)
	}
	return c.reads, nil
}

func (c *netClient) shardSerial() error {
	sh, err := c.integer()
	if err != nil {
		return err
	}
	if sh < 0 || sh >= kvShards {
		return fmt.Errorf("%w: shard %d", errReply, sh)
	}
	se, err := c.integer()
	c.shard, c.serial = int(sh), uint64(se)
	return err
}

func (c *netClient) shape(op *kvOp) replyShape {
	s := replyShape{kind: op.kind, shard: c.shard, serial: c.serial}
	copy(s.vals[:], c.reads)
	copy(s.serials[:], c.serials)
	return s
}

func (c *netClient) journal(op *kvOp) {
	switch op.kind {
	case opGet:
		c.jr[c.client][c.shard] = append(c.jr[c.client][c.shard], kvstore.JournalTxn{
			Serial: c.serial, Reads: []kvstore.JournalOp{{Key: op.keys[0], Val: c.reads[0], OK: true}}})
	case opPut:
		c.jr[c.client][c.shard] = append(c.jr[c.client][c.shard], kvstore.JournalTxn{
			Serial: c.serial, Writer: true, Writes: []kvstore.JournalOp{{Key: op.keys[0], Val: op.vals[0], OK: true}}})
	case opMulti:
		c.jr.journalTxn(c.client, c.shardOf, c.serials, op, c.reads, op.vals)
	}
}

// checksum asks the server for its store checksum.
func (c *netClient) checksum() (uint64, error) {
	c.out = c.out[:0]
	c.cmd(1)
	c.word("CHECKSUM")
	if _, err := c.nc.Write(c.out); err != nil {
		return 0, err
	}
	v, ok, err := c.bulkUint()
	if err == nil && !ok {
		err = errReply
	}
	return v, err
}

// loadKeys writes the whole keyspace through the wire with pipelined SETs,
// journaling them when jr is set.
func loadKeys(s *netServer, seed int64, jr journals, client int) error {
	c, err := dialClient(s.addr, client)
	if err != nil {
		return err
	}
	defer c.close()
	c.jr = jr
	ops := make([]kvOp, 0, loadBatch)
	for k := uint64(1); k <= kvKeys; {
		ops = ops[:0]
		c.out = c.out[:0]
		for ; k <= kvKeys && len(ops) < loadBatch; k++ {
			ops = append(ops, kvOp{kind: opPut, keys: []uint64{k}, vals: []uint64{initialValue(seed, k)}})
			c.encode(&ops[len(ops)-1])
		}
		if _, err := c.nc.Write(c.out); err != nil {
			return err
		}
		for i := range ops {
			if err := c.expect('*', 2); err != nil {
				return err
			}
			if err := c.shardSerial(); err != nil {
				return err
			}
			if jr != nil {
				c.journal(&ops[i])
			}
		}
	}
	return nil
}

// runClients runs every client over its stream concurrently and waits.
func runClients(cs []*netClient, streams []*opStream) error {
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for i := range cs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ops := streams[i]
			var op kvOp
			for j := 0; j < ops.len(); j++ {
				ops.at(j, &op)
				if _, err := cs[i].do(&op); err != nil {
					errs[i] = fmt.Errorf("client %d op %d (%s): %w", i, j, opNames[op.kind], err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func runKVNet(cfg runConfig) (*result, error) {
	res := newResult()
	srv, err := startLoadedServer(cfg.seed, cfg.trace)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	streams := make([]*opStream, kvWorkers)
	for w := range streams {
		streams[w] = genStream(cfg.seed, w, kvNetRoundOps, netMix)
	}

	cs := make([]*netClient, kvWorkers)
	for i := range cs {
		c, err := dialClient(srv.addr, i)
		if err != nil {
			return nil, err
		}
		defer c.close()
		c.e2e = newSampler(samplerCap, uint64(cfg.seed)*31+uint64(i))
		if cfg.trace {
			for _, k := range []opKind{opGet, opPut, opMulti} {
				c.lat[k] = newSampler(samplerCap, uint64(cfg.seed)*31+uint64(i)*7+uint64(k))
			}
			c.shapes = make([]replyShape, 0, replyShapesCap)
		}
		cs[i] = c
	}
	round := func() error { return runClients(cs, streams) }
	roundOps := float64(kvWorkers * kvNetRoundOps)
	rounds := 1
	if err := round(); err != nil { // warm-up
		return nil, err
	}
	pct := newRoundPercentiles(cs[0].e2e, cs[1].e2e)
	pct.reset()
	phase := cfg.seconds
	if cfg.trace {
		phase = cfg.seconds / 2
	}
	// A set-up is a server started and the keyspace loaded over the wire.
	var setup *setupTimer
	var setupErr error
	if !cfg.trace {
		setup = &setupTimer{calls: 1, setups: 1, build: func(int) func() {
			s, err := startLoadedServer(cfg.seed, false)
			if err != nil {
				setupErr = err
				return nil
			}
			return func() {
				if err := s.stop(); err != nil {
					setupErr = err
				}
			}
		}}
	}
	var perRound func()
	if !cfg.trace {
		perRound = pct.take
	}
	durs, err := measuredPhase(res, phase, round, perRound, setup)
	if err == nil {
		err = setupErr
	}
	if err != nil {
		return nil, err
	}
	rounds += len(durs)
	untracedRate := median(rates(roundOps, durs))
	res.record["round_rates"] = spreadRecord(rates(roundOps, durs))
	if !cfg.trace {
		res.metrics["ops_s"] = untracedRate
		res.metrics["p50_us"] = median(pct.p50) / 1e3
		res.metrics["p99_us"] = median(pct.p99) / 1e3
		res.record["percentile_samples"] = pct.samples
		res.record["percentile_rounds"] = len(pct.p50)
		res.record["percentile_ops"] = "every request, median over rounds of each round's percentile"
	} else {
		for _, c := range cs {
			c.tracing = true
			c.rttSum, c.rttN = 0, 0
		}
		before := sumStats(srv.srv.Store())
		srv.cl.begin()
		tr, err := startTrace()
		if err != nil {
			return nil, err
		}
		tdurs, err := roundLoop(phase, round, nil)
		if err != nil {
			return nil, err
		}
		tt, err := tr.stop()
		if err != nil {
			return nil, err
		}
		rounds += len(tdurs)
		after := sumStats(srv.srv.Store())
		ops := roundOps * float64(len(tdurs))
		m := res.metrics
		reads, writes, bytesIn, bytesOut, captured := srv.cl.totals()
		m["server.reads_per_op"] = float64(reads) / ops
		m["server.writes_per_op"] = float64(writes) / ops
		m["server.bytes_per_op"] = float64(bytesIn+bytesOut) / ops
		samples := map[string]int{}
		for k, name := range map[opKind]string{opGet: "get", opMulti: "multi"} {
			s := merged(cs[0].lat[k], cs[1].lat[k])
			samples["net."+name+"_rtt_us"] = len(s)
			m["net."+name+"_rtt_us.p50"] = percentile(s, 50) / 1e3
			m["net."+name+"_rtt_us.p99"] = percentile(s, 99) / 1e3
		}
		stmLayerMetrics(res, before, after, int64(ops))
		traceCommon(res, tt, ops, "op")
		traceOverhead(res, untracedRate, median(rates(roundOps, tdurs)))

		decodeNs, decoded, err := decodeReplay(captured)
		if err != nil {
			return nil, err
		}
		shapes := append(append([]replyShape(nil), cs[0].shapes...), cs[1].shapes...)
		encodeNs := encodeReplay(shapes)
		storeNs, getS, putS := storeReplay(cfg.seed, streams[0])
		m["resp.decode_ns"] = decodeNs
		m["resp.encode_ns"] = encodeNs
		m["kvstore.get_ns.p50"] = percentile(getS, 50)
		m["kvstore.get_ns.p99"] = percentile(getS, 99)
		m["kvstore.put_ns.p50"] = percentile(putS, 50)
		m["kvstore.put_ns.p99"] = percentile(putS, 99)
		var rttSum, rttN int64
		for _, c := range cs {
			rttSum += c.rttSum
			rttN += c.rttN
		}
		rtt := float64(rttSum) / float64(rttN)
		m["server.residual_us"] = (rtt - decodeNs - storeNs - encodeNs) / 1e3
		samples["resp.decode_ns"] = decoded
		samples["resp.encode_ns"] = len(shapes)
		samples["kvstore.get_ns"] = len(getS)
		samples["kvstore.put_ns"] = len(putS)
		res.record["percentile_samples"] = samples
		res.record["residual_parts_ns"] = map[string]float64{
			"rtt_mean": rtt, "decode": decodeNs, "store": storeNs, "encode": encodeNs}
	}
	res.record["rounds"] = rounds
	res.record["round_ops"] = roundOps
	res.attempted = int64(rounds) * int64(roundOps)
	for _, c := range cs {
		if c.badTags > 0 {
			res.fail("client %d: %d reads returned a value of another key", c.client, c.badTags)
		}
	}
	if err := checkNetOneClient(res, cfg.seed, streams[0].prefix(kvNetCheckOps)); err != nil {
		return nil, err
	}
	if err := checkNetJournals(res, cfg.seed, []*opStream{streams[0].prefix(kvNetCheckOps), streams[1].prefix(kvNetCheckOps)}); err != nil {
		return nil, err
	}
	return res, nil
}

// checkNetOneClient runs a stream over one connection to a fresh server in
// lockstep with the reference model: every read must equal the model's, and
// the server's CHECKSUM must equal the model's.
func checkNetOneClient(res *result, seed int64, ops *opStream) error {
	s, err := startLoadedServer(seed, false)
	if err != nil {
		return err
	}
	defer s.stop()
	c, err := dialClient(s.addr, 0)
	if err != nil {
		return err
	}
	defer c.close()
	ref := newModel(seed)
	var op kvOp
	for i := 0; i < ops.len(); i++ {
		ops.at(i, &op)
		got, err := c.do(&op)
		if err != nil {
			return err
		}
		want := ref.apply(&op)
		for j := range want {
			if got[j] != want[j] {
				res.fail("one-client check: op %d (%s) read key %d = %d, reference has %d",
					i, opNames[op.kind], op.keys[j], got[j], want[j])
				return nil
			}
		}
	}
	sum, err := c.checksum()
	if err != nil {
		return err
	}
	if want := checksum(ref); sum != want {
		res.fail("one-client check: CHECKSUM %d, reference checksum %d", sum, want)
	}
	return nil
}

// checkNetJournals runs the streams concurrently against a fresh server,
// each client journaling the serials its replies carry, replays the
// journals (serializability) and compares the server's CHECKSUM with the
// replayed state's.
func checkNetJournals(res *result, seed int64, streams []*opStream) error {
	s, err := startServer(false)
	if err != nil {
		return err
	}
	defer s.stop()
	jr := newJournals(len(streams) + 1)
	if err := loadKeys(s, seed, jr, len(streams)); err != nil {
		return err
	}
	cs := make([]*netClient, len(streams))
	for i := range cs {
		c, err := dialClient(s.addr, i)
		if err != nil {
			return err
		}
		defer c.close()
		c.jr, c.shardOf = jr, s.srv.Store().ShardOf
		cs[i] = c
	}
	if err := runClients(cs, streams); err != nil {
		return err
	}
	ref, err := jr.replay()
	if err != nil {
		res.fail("journal check: %v", err)
		return nil
	}
	sum, err := cs[0].checksum()
	if err != nil {
		return err
	}
	if want := checksum(ref); sum != want {
		res.fail("journal check: CHECKSUM %d, journal replay's checksum %d", sum, want)
	}
	return nil
}

// countingListener counts the server's socket calls and bytes, and keeps a
// copy of the first request bytes it reads once begin is called.
type countingListener struct {
	net.Listener
	on                               atomic.Bool
	reads, writes, bytesIn, bytesOut atomic.Int64

	mu          sync.Mutex
	capture     []byte
	captureConn *countingConn
}

func (l *countingListener) begin() {
	l.reads.Store(0)
	l.writes.Store(0)
	l.bytesIn.Store(0)
	l.bytesOut.Store(0)
	l.on.Store(true)
}

func (l *countingListener) totals() (reads, writes, in, out int64, captured []byte) {
	l.on.Store(false)
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.reads.Load(), l.writes.Load(), l.bytesIn.Load(), l.bytesOut.Load(), l.capture
}

func (l *countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: nc, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.l.on.Load() {
		c.l.reads.Add(1)
		c.l.bytesIn.Add(int64(n))
		// Capture from one connection only, so frames are not interleaved.
		c.l.mu.Lock()
		if len(c.l.capture) < captureBytes && n > 0 {
			if c.l.capture == nil || c.l.captureConn == c {
				c.l.captureConn = c
				c.l.capture = append(c.l.capture, p[:n]...)
			}
		}
		c.l.mu.Unlock()
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.l.on.Load() {
		c.l.writes.Add(1)
		c.l.bytesOut.Add(int64(n))
	}
	return n, err
}

// decodeReplay times resp.Reader.ReadCommand over captured request bytes
// and returns ns per client operation (a GET, a SET, or a whole MULTI
// block) and how many operations one pass decodes.
func decodeReplay(captured []byte) (float64, int, error) {
	// Replay whole operations only: cut after the last complete one.
	br := bytes.NewReader(captured)
	r := resp.NewReader(br)
	ops, end := 0, 0
	for {
		args, err := r.ReadCommand()
		if err != nil {
			break
		}
		if w := string(args[0]); w == "GET" || w == "SET" || w == "EXEC" {
			ops++
			end = len(captured) - br.Len() - r.Buffered()
		}
	}
	if ops == 0 {
		return 0, 0, errors.New("decode replay: no complete request captured")
	}
	frames := captured[:end]
	var passes []float64
	for p := 0; p < 5; p++ {
		t0 := time.Now()
		rr := resp.NewReader(bytes.NewReader(frames))
		for {
			if _, err := rr.ReadCommand(); err != nil {
				break
			}
		}
		passes = append(passes, float64(time.Since(t0).Nanoseconds())/float64(ops))
	}
	return median(passes), ops, nil
}

// encodeReplay times writing the recorded replies through resp.Writer the
// way the server frames them, one flush per operation, in ns per operation.
func encodeReplay(shapes []replyShape) float64 {
	w := resp.NewWriter(io.Discard)
	var passes []float64
	for p := 0; p < 5; p++ {
		t0 := time.Now()
		for i := range shapes {
			writeReply(w, &shapes[i])
			w.Flush()
		}
		passes = append(passes, float64(time.Since(t0).Nanoseconds())/float64(len(shapes)))
	}
	return median(passes)
}

func writeReply(w *resp.Writer, s *replyShape) {
	switch s.kind {
	case opGet:
		w.WriteArrayHeader(3)
		w.WriteBulkUint(s.vals[0])
		w.WriteUint(uint64(s.shard))
		w.WriteUint(s.serial)
	case opPut:
		w.WriteArrayHeader(2)
		w.WriteUint(uint64(s.shard))
		w.WriteUint(s.serial)
	case opMulti:
		w.WriteSimple("OK")
		w.WriteSimple("QUEUED")
		w.WriteSimple("QUEUED")
		w.WriteArrayHeader(2)
		w.WriteArrayHeader(2)
		w.WriteArrayHeader(2)
		w.WriteBulkUint(s.vals[0])
		w.WriteBulkUint(s.vals[1])
		w.WriteSimple("OK")
		w.WriteArrayHeader(kvShards)
		for _, x := range s.serials {
			w.WriteUint(x)
		}
	}
}

// storeReplay runs the stream in process on a fresh store through the
// ShardedHandle calls the server makes (GetSharded, PutSharded, and
// TxnSerials for a MULTI block), and returns the mean ns per operation and
// the GET and SET call times.
func storeReplay(seed int64, ops *opStream) (mean float64, gets, puts []int64) {
	w := newTxnWorker(newLoadedStore(seed), 0)
	w.tracing = true
	for _, k := range []opKind{opGet, opPut, opMulti} {
		w.timed[k] = true
		w.lat[k] = newSampler(ops.len(), uint64(seed))
	}
	t0 := time.Now()
	w.runStream(ops)
	mean = float64(time.Since(t0).Nanoseconds()) / float64(ops.len())
	return mean, w.lat[opGet].buf, w.lat[opPut].buf
}
