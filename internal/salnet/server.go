// Package salnet is the network serving layer: a TCP server that fronts a
// difs.Cluster with the wire protocol, and a pooled, retrying client library.
// It is the tier that turns the in-process cluster into a service — the layer
// where, per the paper's premise, a distributed file system absorbs device
// failures behind a network boundary instead of surfacing them to every
// consumer.
//
// Server model (two goroutines per connection plus a shared bounded worker
// pool):
//
//	accept loop ─> per-conn read loop ──(bounded work queue)──> worker pool
//	                                                               │
//	client <── per-conn writer goroutine <── response queue <──────┘
//
// The read loop parses frames into pooled buffers and blocks on the work
// queue when the pool falls behind — backpressure propagates to the client
// through TCP flow control rather than through unbounded queueing. An
// adjacent run of already-buffered pipelined GETs is coalesced into one work
// item that the worker serves with a single difs batch call
// (Cluster.GetBatchCtx), paying the cluster's lock and settling cost once
// per run instead of once per op. Coalescing only consumes bytes the client
// has already sent (gated on the read buffer), so an idle connection is
// never waited on; clients must write each frame atomically, which the
// salnet client does.
//
// Workers execute against the cluster with a per-op deadline (difs *Ctx
// entry points abort chunk-granular work when it expires; a coalesced run
// shares one deadline) and hand encoded responses to the connection's
// writer goroutine, which drains its queue in enqueue order — responses
// leave in completion order, pipelined requests are answered out of order
// and matched by request id. Responses that pile up behind a slow socket
// are flushed together as one vectored write (net.Buffers / writev), so a
// pipelining client costs one syscall per drained batch, not per response.
// Each batch write carries a deadline (ServerConfig.WriteTimeout): a peer
// that stops reading is disconnected rather than allowed to pin the
// connection's writer and its queued buffers forever.
//
// Fault injection: the server declares net.conn.drop (connection severed
// before the response), net.resp.slow (injected latency), and
// net.frame.truncate (half a response frame, then the connection severed) on
// the registry given to InjectFaults. All three surface to the client as
// transport failures its retry/reconnect path must absorb — the same
// contract as injected device faults under the FTL.
package salnet

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"salamander/internal/difs"
	"salamander/internal/faultinject"
	"salamander/internal/shardmap"
	"salamander/internal/telemetry"
	"salamander/internal/wire"
)

// ServerConfig parameterizes a Server. The zero value gets sane defaults.
type ServerConfig struct {
	// Workers is the request worker pool size (default 8). It bounds how many
	// cluster operations are in flight at once; the cluster serializes on its
	// own lock, so this mainly bounds queued work and decode/encode overlap.
	Workers int
	// OpTimeout is the per-operation deadline (0 = none). Expiry aborts the
	// cluster work via the difs context entry points and answers
	// StatusTimeout.
	OpTimeout time.Duration
	// InjectedLatency is the delay added when the net.resp.slow failpoint
	// fires (default 2ms).
	InjectedLatency time.Duration
	// WriteTimeout bounds each response write (default 10s, negative =
	// none). A client that stops reading otherwise blocks a worker forever
	// on TCP backpressure — with the shared bounded pool, a few stalled
	// connections would starve every other connection and wedge Shutdown's
	// drain. On expiry the connection is severed and the response dropped.
	WriteTimeout time.Duration
	// SlowOpThreshold enables the slow-op log: an op whose server-side
	// latency (admission to response written) exceeds it bumps
	// net.server.slow_ops and records a KindSlowOp trace event carrying the
	// op, key, and duration. Zero disables; the check is one comparison per
	// op, so it is safe to leave on in production.
	SlowOpThreshold time.Duration
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.InjectedLatency <= 0 {
		c.InjectedLatency = 2 * time.Millisecond
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 10 * time.Second
	}
	return c
}

// sTele holds the server's registry-backed telemetry handles.
type sTele struct {
	conns, closed   *telemetry.Counter
	requests        *telemetry.Counter
	badFrames       *telemetry.Counter
	bytesIn         *telemetry.Counter
	bytesOut        *telemetry.Counter
	timeouts        *telemetry.Counter
	writeTimeouts   *telemetry.Counter
	shutdownRejects *telemetry.Counter
	droppedConns    *telemetry.Counter
	slowResponses   *telemetry.Counter
	truncatedFrames *telemetry.Counter
	slowOps         *telemetry.Counter
	batches         *telemetry.Counter
	batchedOps      *telemetry.Counter
	notOwnerRejects *telemetry.Counter
	mapEpoch        *telemetry.Gauge
	opNs            *telemetry.Histogram
	tr              *telemetry.Tracer
}

func bindSrvTele(reg *telemetry.Registry, tr *telemetry.Tracer) sTele {
	return sTele{
		conns:           reg.Counter("net.server.conns"),
		closed:          reg.Counter("net.server.conns_closed"),
		requests:        reg.Counter("net.server.requests"),
		badFrames:       reg.Counter("net.server.bad_frames"),
		bytesIn:         reg.Counter("net.server.bytes_in"),
		bytesOut:        reg.Counter("net.server.bytes_out"),
		timeouts:        reg.Counter("net.server.timeouts"),
		writeTimeouts:   reg.Counter("net.server.write_timeouts"),
		shutdownRejects: reg.Counter("net.server.shutdown_rejects"),
		droppedConns:    reg.Counter("net.server.dropped_conns"),
		slowResponses:   reg.Counter("net.server.slow_responses"),
		truncatedFrames: reg.Counter("net.server.truncated_frames"),
		slowOps:         reg.Counter("net.server.slow_ops"),
		batches:         reg.Counter("net.server.batches"),
		batchedOps:      reg.Counter("net.server.batched_ops"),
		notOwnerRejects: reg.Counter("shardmap.not_owner_rejects"),
		mapEpoch:        reg.Gauge("shardmap.epoch"),
		opNs:            reg.Histogram("net.server.op_ns"),
		tr:              tr,
	}
}

// Server serves a difs.Cluster over the wire protocol.
type Server struct {
	cluster *difs.Cluster
	cfg     ServerConfig

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*srvConn]struct{}
	draining bool
	started  bool

	work     chan *request
	inflight sync.WaitGroup // admitted requests not yet answered
	connWg   sync.WaitGroup // read loops
	workerWg sync.WaitGroup // worker pool
	acceptWg sync.WaitGroup // accept loop

	bufPool sync.Pool // *[]byte scratch, shared by readers and workers

	// smap is the server's current shard map (nil until SetShardMap). The
	// encoded bytes are cached alongside so every NotOwner rejection reuses
	// one encoding.
	smap atomic.Pointer[srvShardMap]

	tele sTele

	siteDrop  *faultinject.Site
	siteSlow  *faultinject.Site
	siteTrunc *faultinject.Site
}

// request is one admitted frame: f aliases *bufp, which belongs to the
// request until the worker releases it back to the pool. A non-empty more
// makes this the head of a coalesced GET run — every frame in the run was
// admitted (and counted inflight) individually, and each gets its own
// response frame.
type request struct {
	conn *srvConn
	f    wire.Frame
	bufp *[]byte
	more []*request
}

// maxGetBatch caps one coalesced GET run: bounds per-batch memory and how
// long one worker monopolizes a shard lock.
const maxGetBatch = 32

// NewServer returns a server fronting cluster. Call Start (or Serve) to
// accept connections and Shutdown to drain.
func NewServer(cluster *difs.Cluster, cfg ServerConfig) *Server {
	s := &Server{
		cluster: cluster,
		cfg:     cfg.withDefaults(),
		conns:   map[*srvConn]struct{}{},
		tele:    bindSrvTele(telemetry.NewRegistry(), nil),
	}
	// Four queued requests per worker; when the queue is full, connection
	// read loops block — backpressure, not load shedding.
	s.work = make(chan *request, 4*s.cfg.Workers)
	s.bufPool.New = func() any { b := make([]byte, 0, 4096); return &b }
	return s
}

// Instrument rebinds the server's counters and histograms to a shared
// registry and attaches a tracer. Call before Start for complete counts.
func (s *Server) Instrument(reg *telemetry.Registry, tr *telemetry.Tracer) {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tele = bindSrvTele(reg, tr)
}

// srvShardMap pairs an installed shard map with its cached encoding.
type srvShardMap struct {
	m   *shardmap.Map
	enc []byte
}

// SetShardMap installs (or replaces) the server's shard map. The map is what
// NotOwner rejections carry; install a bumped-epoch map at drain time so
// stale clients re-route in one round trip.
// Replacing with an older epoch is refused so a racing late install cannot
// roll the fleet's routing view backwards.
func (s *Server) SetShardMap(m *shardmap.Map) error {
	if m == nil {
		return errors.New("salnet: nil shard map")
	}
	if err := m.Validate(); err != nil {
		return err
	}
	enc, err := m.Encode()
	if err != nil {
		return err
	}
	next := &srvShardMap{m: m.Clone(), enc: enc}
	for {
		cur := s.smap.Load()
		if cur != nil {
			if cur.m.Epoch > m.Epoch {
				return fmt.Errorf("salnet: shard map epoch %d older than installed %d", m.Epoch, cur.m.Epoch)
			}
			if cur.m.Epoch == m.Epoch {
				return nil // same epoch: keep the installed map
			}
		}
		if s.smap.CompareAndSwap(cur, next) {
			s.tele.mapEpoch.Set(float64(m.Epoch))
			return nil
		}
	}
}

// ShardMap returns the installed shard map (nil if none).
func (s *Server) ShardMap() *shardmap.Map {
	if sm := s.smap.Load(); sm != nil {
		return sm.m.Clone()
	}
	return nil
}

// notOwnerPayload rewrites a NotOwner response to carry the encoded current
// shard map instead of prose, so a stale client refreshes and retries
// against the right owner in one round trip.
func (s *Server) notOwnerPayload(resp *wire.Frame) {
	s.tele.notOwnerRejects.Inc()
	if sm := s.smap.Load(); sm != nil {
		resp.Payload = sm.enc
	} else {
		resp.Payload = nil
	}
}

// InjectFaults declares the network failpoints on fr: net.conn.drop,
// net.resp.slow, net.frame.truncate. Disarmed sites cost one atomic load per
// request.
func (s *Server) InjectFaults(fr *faultinject.Registry) {
	s.siteDrop = fr.Site("net.conn.drop")
	s.siteSlow = fr.Site("net.resp.slow")
	s.siteTrunc = fr.Site("net.frame.truncate")
}

// Start listens on addr (e.g. "127.0.0.1:0") and serves in the background.
// It returns the bound address, so ":0" callers learn their port.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return nil, wire.ErrShutdown
	}
	s.ln = ln
	s.startLocked()
	s.mu.Unlock()
	s.acceptWg.Add(1)
	go func() {
		defer s.acceptWg.Done()
		s.acceptLoop(ln)
	}()
	return ln.Addr(), nil
}

func (s *Server) startLocked() {
	if s.started {
		return
	}
	s.started = true
	for i := 0; i < s.cfg.Workers; i++ {
		s.workerWg.Add(1)
		go func() {
			defer s.workerWg.Done()
			for req := range s.work {
				s.handle(req)
			}
		}()
	}
}

func (s *Server) acceptLoop(ln net.Listener) {
	for {
		nc, err := ln.Accept()
		if err != nil {
			// Listener closed by Shutdown, or fatal accept error either way
			// the loop is done; Shutdown owns the rest of the teardown.
			return
		}
		sc := &srvConn{s: s, nc: nc, wt: s.cfg.WriteTimeout}
		sc.qcond = sync.NewCond(&sc.qmu)
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.conns[sc] = struct{}{}
		s.mu.Unlock()
		s.tele.conns.Inc()
		s.tele.tr.Emit(telemetry.Event{Kind: telemetry.KindNetConn, Layer: "net", Detail: "accept"})
		s.connWg.Add(2)
		go sc.writerLoop()
		go func() {
			defer s.connWg.Done()
			s.readLoop(sc)
		}()
	}
}

// readLoop parses frames off one connection and admits them to the worker
// pool, coalescing adjacent already-buffered GETs into one work item. Any
// read or protocol error ends the connection: a frame stream that lost sync
// cannot be trusted past the first bad frame.
func (s *Server) readLoop(sc *srvConn) {
	defer s.dropConn(sc, "close")
	br := bufio.NewReaderSize(sc.nc, 64<<10)
	for {
		bufp := s.bufPool.Get().(*[]byte)
		f, buf, err := wire.ReadFrame(br, *bufp)
		*bufp = buf
		if err != nil {
			s.bufPool.Put(bufp)
			if isProtocolErr(err) {
				s.tele.badFrames.Inc()
			}
			return
		}
		if !s.admit(sc, &f, bufp) {
			return
		}
		req := &request{conn: sc, f: f, bufp: bufp}
		// Extend a GET into a run while the client has more frames already
		// buffered: only bytes the peer has sent can grow the batch, so a
		// quiet connection admits its op immediately. A non-GET ends the run
		// and is admitted as its own work item right behind it.
		var trailing *request
		dying := false
		for req.f.Op == wire.OpGet && len(req.more)+1 < maxGetBatch && br.Buffered() > 0 {
			nbufp := s.bufPool.Get().(*[]byte)
			nf, nbuf, nerr := wire.ReadFrame(br, *nbufp)
			*nbufp = nbuf
			if nerr != nil {
				s.bufPool.Put(nbufp)
				if isProtocolErr(nerr) {
					s.tele.badFrames.Inc()
				}
				dying = true
				break
			}
			if !s.admit(sc, &nf, nbufp) {
				dying = true
				break
			}
			nreq := &request{conn: sc, f: nf, bufp: nbufp}
			if nf.Op != wire.OpGet {
				trailing = nreq
				break
			}
			req.more = append(req.more, nreq)
		}
		s.work <- req
		if trailing != nil {
			s.work <- trailing
		}
		if dying {
			return
		}
	}
}

// admit charges one parsed frame against the drain gate and the inflight
// count. A false return means the server is draining: the frame was
// answered with StatusShutdown (best effort, so a pipelining client can
// tell a drain from a crash) and the connection must stop reading.
func (s *Server) admit(sc *srvConn, f *wire.Frame, bufp *[]byte) bool {
	s.tele.bytesIn.Add(uint64(wire.HeaderSize + 4 + len(f.Key) + len(f.Payload)))
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.bufPool.Put(bufp)
		s.tele.shutdownRejects.Inc()
		resp := wire.Frame{ID: f.ID, Op: f.Op, Status: wire.StatusShutdown}
		out, _ := wire.AppendFrame(nil, &resp)
		_ = sc.write(out)
		return false
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	s.tele.requests.Inc()
	return true
}

func isProtocolErr(err error) bool {
	return errors.Is(err, wire.ErrFrameTooBig) || errors.Is(err, wire.ErrShortFrame) ||
		errors.Is(err, wire.ErrBadOp) || errors.Is(err, wire.ErrBadKey)
}

// handle executes one admitted work item on a worker goroutine.
func (s *Server) handle(req *request) {
	if len(req.more) > 0 {
		s.handleGetRun(req)
		return
	}
	start := time.Now()
	if s.siteDrop.Fire() {
		// Injected connection drop: the op never executes, the client sees
		// the conn die and retries on a fresh one.
		s.tele.droppedConns.Inc()
		s.tele.tr.Emit(telemetry.Event{Kind: telemetry.KindNetConn, Layer: "net", Detail: "drop"})
		s.releaseBuf(req)
		req.conn.abort()
		s.inflight.Done()
		return
	}
	if s.siteSlow.Fire() {
		s.tele.slowResponses.Inc()
		time.Sleep(s.cfg.InjectedLatency)
	}

	ctx := context.Background()
	var cancel context.CancelFunc
	if s.cfg.OpTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.OpTimeout)
	}
	resp := s.dispatch(ctx, &req.f)
	if cancel != nil {
		cancel()
	}
	s.finish(req, &resp, start)
}

// handleGetRun serves one coalesced run of pipelined GETs with a single
// cluster batch call. Failpoints fire per op so injection rates match the
// un-coalesced path: any injected drop severs the connection for the whole
// run, and injected latency accumulates per firing.
func (s *Server) handleGetRun(head *request) {
	run := make([]*request, 0, 1+len(head.more))
	run = append(run, head)
	run = append(run, head.more...)
	head.more = nil
	start := time.Now()

	drop, slow := false, 0
	for range run {
		if s.siteDrop.Fire() {
			drop = true
		}
		if s.siteSlow.Fire() {
			slow++
		}
	}
	if drop {
		s.tele.droppedConns.Inc()
		s.tele.tr.Emit(telemetry.Event{Kind: telemetry.KindNetConn, Layer: "net", Detail: "drop"})
		for _, r := range run {
			s.releaseBuf(r)
			s.inflight.Done()
		}
		head.conn.abort()
		return
	}
	if slow > 0 {
		s.tele.slowResponses.Add(uint64(slow))
		time.Sleep(time.Duration(slow) * s.cfg.InjectedLatency)
	}

	keys := make([]string, len(run))
	for i, r := range run {
		keys[i] = string(r.f.Key)
	}
	ctx := context.Background()
	var cancel context.CancelFunc
	if s.cfg.OpTimeout > 0 {
		// One op deadline covers the run: the batch holds each shard lock
		// once, so its critical section is what the deadline must bound.
		ctx, cancel = context.WithTimeout(ctx, s.cfg.OpTimeout)
	}
	datas, errs := s.cluster.GetBatchCtx(ctx, keys)
	if cancel != nil {
		cancel()
	}
	s.tele.batches.Inc()
	s.tele.batchedOps.Add(uint64(len(run)))

	for i, r := range run {
		resp := wire.Frame{ID: r.f.ID, Op: r.f.Op}
		if errs[i] != nil {
			resp.Status = statusOf(errs[i])
			if resp.Status == wire.StatusNotOwner {
				s.notOwnerPayload(&resp)
			} else {
				resp.Payload = []byte(errs[i].Error())
			}
		} else {
			resp.Payload = clampRange(&r.f, datas[i])
		}
		s.finish(r, &resp, start)
	}
}

// finish encodes one response, records the op metrics, and hands the frame
// to the connection's writer goroutine, transferring the request's inflight
// charge to it. Op latency is measured admission to response queued; the
// write itself is bounded separately by WriteTimeout.
func (s *Server) finish(req *request, resp *wire.Frame, start time.Time) {
	if resp.Status == wire.StatusTimeout {
		s.tele.timeouts.Inc()
	}
	outp := s.bufPool.Get().(*[]byte)
	out, err := wire.AppendFrame((*outp)[:0], resp)
	*outp = out
	if err != nil {
		// Response too big for the protocol (object larger than MaxFrame):
		// replace with an error frame.
		*resp = wire.Frame{ID: req.f.ID, Op: req.f.Op, Status: wire.StatusInternal, Payload: []byte(err.Error())}
		out, _ = wire.AppendFrame((*outp)[:0], resp)
		*outp = out
	}
	trunc := s.siteTrunc.Fire()
	if trunc {
		// Injected truncated frame: the writer sends half, then the conn dies.
		s.tele.truncatedFrames.Inc()
		s.tele.tr.Emit(telemetry.Event{Kind: telemetry.KindNetConn, Layer: "net", Detail: "truncate"})
	}
	elapsed := time.Since(start)
	s.tele.opNs.Observe(float64(elapsed.Nanoseconds()))
	if thr := s.cfg.SlowOpThreshold; thr > 0 && elapsed > thr {
		s.tele.slowOps.Inc()
		s.tele.tr.Emit(telemetry.Event{
			Kind: telemetry.KindSlowOp, Layer: "net",
			Detail: fmt.Sprintf("%v %s", req.f.Op, req.f.Key),
			N:      elapsed.Nanoseconds(),
		})
	}
	// The response was copied into outp (a ping echo aliases the request
	// payload until here), so the request buffer can go back to the pool.
	s.releaseBuf(req)
	// Hand the frame to the connection's writer goroutine. The op's inflight
	// charge transfers with it (the writer calls Done after the frame is out
	// or the conn dies); a closed queue means the conn is already severed,
	// so settle the charge here.
	if !req.conn.enqueue(outFrame{bufp: outp, trunc: trunc}) {
		s.bufPool.Put(outp)
		s.inflight.Done()
	}
}

func (s *Server) releaseBuf(req *request) {
	if req.bufp != nil {
		s.bufPool.Put(req.bufp)
		req.bufp = nil
	}
}

// dispatch runs one decoded request against the cluster and builds the
// response frame. Status carries the error class; the payload of an error
// response is its message.
func (s *Server) dispatch(ctx context.Context, f *wire.Frame) wire.Frame {
	resp := wire.Frame{ID: f.ID, Op: f.Op}
	fail := func(err error) wire.Frame {
		resp.Status = statusOf(err)
		if resp.Status == wire.StatusNotOwner {
			// The cluster refused a foreign-shard key: answer with the
			// current map so the client re-routes, not with prose.
			s.notOwnerPayload(&resp)
			return resp
		}
		resp.Payload = []byte(err.Error())
		return resp
	}
	key := string(f.Key)
	switch f.Op {
	case wire.OpPing:
		resp.Payload = f.Payload
	case wire.OpPut:
		// Upsert: atomically replace any existing object, so a retried Put
		// whose first attempt landed (response lost) is idempotent, a failed
		// overwrite keeps the previous content, and no concurrent Get observes
		// the key missing mid-replace.
		if err := s.cluster.ReplaceCtx(ctx, key, f.Payload); err != nil {
			return fail(err)
		}
	case wire.OpGet:
		data, err := s.cluster.GetCtx(ctx, key)
		if err != nil {
			return fail(err)
		}
		resp.Payload = clampRange(f, data)
	case wire.OpDelete:
		// Idempotent: deleting a missing object succeeds, so a retried
		// delete whose first attempt landed reports success, not NotFound.
		if err := s.cluster.DeleteCtx(ctx, key); err != nil && !errors.Is(err, difs.ErrNotFound) {
			return fail(err)
		}
	case wire.OpRepair:
		copies, err := s.cluster.RepairCtx(ctx)
		if err != nil {
			return fail(err)
		}
		resp.Payload = binary.BigEndian.AppendUint64(nil, uint64(copies))
	default:
		return fail(fmt.Errorf("%w: opcode %v", wire.ErrBadRequest, f.Op))
	}
	return resp
}

// clampRange applies a GET's client-controlled [Offset, Offset+Length)
// window to the object data. Clamped in uint64 space: converting first
// would turn offsets >= 2^63 into negative slice indexes.
func clampRange(f *wire.Frame, data []byte) []byte {
	lo := len(data)
	if f.Offset < uint64(len(data)) {
		lo = int(f.Offset)
	}
	hi := len(data)
	if f.Length > 0 && uint64(hi-lo) > uint64(f.Length) {
		hi = lo + int(f.Length)
	}
	return data[lo:hi]
}

// statusOf maps errors to wire statuses, folding context expiry into
// StatusTimeout (the difs *Ctx entry points wrap ctx.Err()).
func statusOf(err error) wire.Status {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return wire.StatusTimeout
	}
	return wire.StatusOf(err)
}

// dropConn removes a connection from the registry and closes it.
func (s *Server) dropConn(sc *srvConn, detail string) {
	s.mu.Lock()
	_, present := s.conns[sc]
	delete(s.conns, sc)
	s.mu.Unlock()
	sc.abort()
	if present {
		s.tele.closed.Inc()
		s.tele.tr.Emit(telemetry.Event{Kind: telemetry.KindNetConn, Layer: "net", Detail: detail})
	}
}

// Draining reports whether Shutdown has begun. It flips true the moment the
// drain starts — while admitted requests are still being answered — which
// makes it the readiness signal for a drain-aware /readyz probe: a load
// balancer stops routing to the server before its last response leaves.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown gracefully drains the server: stop accepting, reject new frames
// with StatusShutdown, wait for every admitted request to be answered (or ctx
// to expire), then close all connections and join every goroutine. Safe to
// call more than once; later calls return immediately.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	ln := s.ln
	started := s.started
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.acceptWg.Wait()

	var err error
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("salnet: shutdown drain: %w", ctx.Err())
	}

	s.mu.Lock()
	for sc := range s.conns {
		delete(s.conns, sc)
		sc.abort()
		s.tele.closed.Inc()
	}
	s.mu.Unlock()
	s.connWg.Wait()
	if started {
		close(s.work)
		s.workerWg.Wait()
	}
	return err
}

// srvConn is one accepted connection. Workers enqueue encoded responses;
// the connection's writer goroutine drains the queue in order and flushes
// each drained batch as one vectored write. Bytes only ever reach the
// socket under wmu, so the writer and the readLoop's direct shutdown
// rejection interleave whole frames, never bytes.
type srvConn struct {
	s    *Server
	nc   net.Conn
	wt   time.Duration
	once sync.Once

	qmu     sync.Mutex
	qcond   *sync.Cond
	queue   []outFrame
	qclosed bool

	wmu sync.Mutex
}

// outFrame is one encoded response awaiting the writer: the pooled buffer
// is released — and the frame's inflight charge dropped — after the write
// attempt. trunc marks an injected truncation: half the frame, then the
// connection dies.
type outFrame struct {
	bufp  *[]byte
	trunc bool
}

// enqueue hands one encoded response to the writer goroutine, in completion
// order. A false return means the connection is already severed and the
// caller keeps ownership of the buffer (and its inflight charge).
func (sc *srvConn) enqueue(of outFrame) bool {
	sc.qmu.Lock()
	if sc.qclosed {
		sc.qmu.Unlock()
		return false
	}
	sc.queue = append(sc.queue, of)
	sc.qmu.Unlock()
	sc.qcond.Signal()
	return true
}

// writerLoop drains the response queue until the connection is severed and
// the queue is empty. Every drained frame is released and its inflight
// charge dropped whether or not the write succeeded — a severed connection
// drops responses, it never wedges Shutdown's drain.
func (sc *srvConn) writerLoop() {
	defer sc.s.connWg.Done()
	var batch []outFrame
	bufs := make(net.Buffers, 0, 16)
	for {
		sc.qmu.Lock()
		for len(sc.queue) == 0 && !sc.qclosed {
			sc.qcond.Wait()
		}
		if len(sc.queue) == 0 {
			sc.qmu.Unlock()
			return
		}
		batch, sc.queue = sc.queue, batch[:0]
		sc.qmu.Unlock()

		// Scatter-gather: everything that piled up while the last write was
		// in flight goes out as one writev. Injected truncations flush what
		// came before them, then send half a frame and sever the conn
		// (later writes fail fast on the closed socket).
		total := 0
		flush := func() {
			if len(bufs) == 0 {
				return
			}
			if sc.writeBufs(bufs) == nil {
				sc.s.tele.bytesOut.Add(uint64(total))
			}
			bufs, total = bufs[:0], 0
		}
		for _, of := range batch {
			b := *of.bufp
			if of.trunc {
				flush()
				_ = sc.writeBufs(net.Buffers{b[:len(b)/2]})
				sc.abort()
				continue
			}
			bufs = append(bufs, b)
			total += len(b)
		}
		flush()
		for i := range batch {
			sc.s.bufPool.Put(batch[i].bufp)
			batch[i] = outFrame{}
			sc.s.inflight.Done()
		}
	}
}

// write sends one whole frame outside the response queue (shutdown
// rejections, which carry no inflight charge).
func (sc *srvConn) write(b []byte) error {
	return sc.writeBufs(net.Buffers{b})
}

// writeBufs writes a set of whole frames as one vectored write under a
// write deadline. A peer that stops reading must not pin the writer (and
// its queued buffers) on TCP backpressure, so on any failure — deadline
// expiry included — the connection is severed: a frame stream that may have
// been partially flushed cannot be trusted anyway.
func (sc *srvConn) writeBufs(bufs net.Buffers) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	if sc.wt > 0 {
		_ = sc.nc.SetWriteDeadline(time.Now().Add(sc.wt))
	}
	_, err := bufs.WriteTo(sc.nc)
	if err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			sc.s.tele.writeTimeouts.Inc()
			sc.s.tele.tr.Emit(telemetry.Event{Kind: telemetry.KindNetConn, Layer: "net", Detail: "write_timeout"})
		}
		sc.abort()
	}
	return err
}

// abort severs the connection: the read loop unblocks with an error, and
// the writer drains whatever is queued (failing fast) and exits.
func (sc *srvConn) abort() {
	sc.once.Do(func() {
		sc.nc.Close()
		sc.qmu.Lock()
		sc.qclosed = true
		sc.qmu.Unlock()
		sc.qcond.Broadcast()
	})
}
