package salnet

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"salamander/internal/faultinject"
	"salamander/internal/shardmap"
	"salamander/internal/stats"
	"salamander/internal/telemetry"
	"salamander/internal/wire"
)

// ErrConnBroken marks a transport failure (connection died, frame truncated,
// dial failed) as opposed to a server-reported status. Transport failures are
// retried; status errors are returned to the caller as difs sentinels.
var ErrConnBroken = errors.New("salnet: connection broken")

// ErrClientClosed is returned by calls on a closed client.
var ErrClientClosed = errors.New("salnet: client closed")

// ClientConfig parameterizes a Client. The zero value (plus Addr) gets sane
// defaults.
type ClientConfig struct {
	// Addr is the server's TCP address.
	Addr string
	// Conns is the connection pool size (default 1). Calls round-robin over
	// the pool; each connection multiplexes any number of concurrent calls
	// (pipelining), matching responses by request id.
	Conns int
	// MaxRetries bounds transport-failure retries per call (default 4;
	// attempts = MaxRetries+1). Server status errors are never retried.
	MaxRetries int
	// RetryBackoff is the delay before the first retry, doubling per attempt
	// (default 2ms). Each sleep is equal-jittered — half fixed, half random —
	// so a fleet of clients hitting a restarting server doesn't reconnect in
	// lockstep.
	RetryBackoff time.Duration
	// RetryBudget caps the total time one call may spend sleeping between
	// retries (default 2s; negative = uncapped). A call also never starts a
	// sleep its context deadline would cut short: it gives up immediately
	// with the last transport error instead of burning the caller's
	// remaining time.
	RetryBudget time.Duration
	// DialTimeout bounds each (re)connect (default 5s).
	DialTimeout time.Duration
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.Conns <= 0 {
		c.Conns = 1
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 4
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 2 * time.Millisecond
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 2 * time.Second
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	return c
}

// cTele holds the client's registry-backed telemetry handles.
type cTele struct {
	ops        *telemetry.Counter
	retries    *telemetry.Counter
	reconnects *telemetry.Counter
	recoveries *telemetry.Counter
	errs       *telemetry.Counter
	opNs       *telemetry.Histogram
	tr         *telemetry.Tracer
}

func bindCliTele(reg *telemetry.Registry, tr *telemetry.Tracer) cTele {
	return cTele{
		ops:        reg.Counter("net.client.ops"),
		retries:    reg.Counter("net.client.retries"),
		reconnects: reg.Counter("net.client.reconnects"),
		recoveries: reg.Counter("net.client.recoveries"),
		errs:       reg.Counter("net.client.errors"),
		opNs:       reg.Histogram("net.client.op_ns"),
		tr:         tr,
	}
}

// Client is a pooled, retrying wire-protocol client. All methods are safe
// for concurrent use; concurrent calls pipeline over the pooled connections.
type Client struct {
	cfg   ClientConfig
	reqID atomic.Uint64
	rr    atomic.Uint64

	mu     sync.Mutex
	conns  []*clientConn // fixed length cfg.Conns; nil/dead slots redialed
	closed bool

	rngMu sync.Mutex
	rng   *stats.RNG // backoff jitter

	tele cTele
	fr   *faultinject.Registry // recovery accounting (may be nil)
}

// Dial creates a client and eagerly establishes the first pooled connection,
// so configuration errors surface immediately. Remaining connections are
// dialed on demand.
func Dial(cfg ClientConfig) (*Client, error) {
	cl := &Client{
		cfg:  cfg.withDefaults(),
		tele: bindCliTele(telemetry.NewRegistry(), nil),
		rng:  stats.NewRNG(uint64(time.Now().UnixNano())),
	}
	cl.conns = make([]*clientConn, cl.cfg.Conns)
	cc, err := cl.dial()
	if err != nil {
		return nil, err
	}
	cl.conns[0] = cc
	return cl, nil
}

// Instrument rebinds the client's counters to a shared registry and attaches
// a tracer.
func (cl *Client) Instrument(reg *telemetry.Registry, tr *telemetry.Tracer) {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.tele = bindCliTele(reg, tr)
}

// InjectFaults attaches the fault registry whose injected network faults this
// client absorbs: every retry that ultimately succeeds after a transport
// failure calls fr.Recovered("net"), so net.faults_recovered can be compared
// against net.faults_injected exactly like the device layers.
func (cl *Client) InjectFaults(fr *faultinject.Registry) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.fr = fr
}

// Close terminates every pooled connection. In-flight calls fail with a
// transport error and are not retried further.
func (cl *Client) Close() error {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil
	}
	cl.closed = true
	conns := append([]*clientConn(nil), cl.conns...)
	cl.mu.Unlock()
	for _, cc := range conns {
		if cc != nil {
			cc.fail(ErrClientClosed)
		}
	}
	return nil
}

func (cl *Client) dial() (*clientConn, error) {
	nc, err := net.DialTimeout("tcp", cl.cfg.Addr, cl.cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %s: %v", ErrConnBroken, cl.cfg.Addr, err)
	}
	cc := &clientConn{
		nc:      nc,
		bw:      bufio.NewWriterSize(nc, 64<<10),
		pending: map[uint64]chan wire.Frame{},
	}
	go cc.readLoop()
	return cc, nil
}

// conn returns a live pooled connection, redialing its slot if needed.
func (cl *Client) conn() (*clientConn, error) {
	slot := int(cl.rr.Add(1)) % cl.cfg.Conns
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil, ErrClientClosed
	}
	cc := cl.conns[slot]
	if cc != nil && !cc.isDead() {
		cl.mu.Unlock()
		return cc, nil
	}
	redial := cc != nil // a previously live conn died: this is a reconnect
	cl.mu.Unlock()

	// Dial outside the lock; only one winner installs per slot.
	fresh, err := cl.dial()
	if err != nil {
		return nil, err
	}
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		fresh.fail(ErrClientClosed)
		return nil, ErrClientClosed
	}
	if cur := cl.conns[slot]; cur != nil && !cur.isDead() {
		// Another goroutine already reconnected this slot.
		cl.mu.Unlock()
		fresh.fail(ErrConnBroken)
		return cur, nil
	}
	cl.conns[slot] = fresh
	cl.mu.Unlock()
	if redial {
		cl.tele.reconnects.Inc()
	}
	return fresh, nil
}

// do runs one request with transport-failure retries and jittered
// exponential backoff, bounded by both the per-call retry budget and the
// context deadline. Status errors come back as the corresponding difs
// sentinel and are never retried.
func (cl *Client) do(ctx context.Context, f wire.Frame) (wire.Frame, error) {
	start := time.Now()
	cl.tele.ops.Inc()
	budget := cl.cfg.RetryBudget
	deadline, hasDeadline := ctx.Deadline()
	var lastErr error
	for attempt := 0; attempt <= cl.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			d := cl.jittered(cl.cfg.RetryBackoff << uint(attempt-1))
			if budget >= 0 {
				if d > budget {
					cl.tele.errs.Inc()
					return wire.Frame{}, fmt.Errorf("salnet: %s retry budget exhausted after %d attempts: %w", f.Op, attempt, lastErr)
				}
				budget -= d
			}
			if hasDeadline && time.Until(deadline) <= d {
				// The sleep would outlive the caller: fail now with the real
				// transport error instead of burning their remaining time.
				cl.tele.errs.Inc()
				return wire.Frame{}, fmt.Errorf("salnet: %s out of time after %d attempts: %w", f.Op, attempt, lastErr)
			}
			cl.tele.retries.Inc()
			cl.tele.tr.Emit(telemetry.Event{
				Kind: telemetry.KindNetRetry, Layer: "net",
				N: int64(attempt), Detail: f.Op.String(),
			})
			if err := sleepCtx(ctx, d); err != nil {
				cl.tele.errs.Inc()
				return wire.Frame{}, fmt.Errorf("salnet: %s retry wait: %w (last transport error: %v)", f.Op, err, lastErr)
			}
		}
		cc, err := cl.conn()
		if err == nil {
			var resp wire.Frame
			f.ID = cl.reqID.Add(1)
			resp, err = cc.roundTrip(ctx, &f)
			if err == nil {
				cl.tele.opNs.Observe(float64(time.Since(start).Nanoseconds()))
				if attempt > 0 {
					// The transport fault (injected or real) was absorbed by
					// the retry path.
					cl.tele.recoveries.Inc()
					cl.fr.Recovered("net")
				}
				if resp.Status != wire.StatusOK {
					return resp, wire.StatusError(resp.Status, string(resp.Payload))
				}
				return resp, nil
			}
		}
		if ctx.Err() != nil || !errors.Is(err, ErrConnBroken) {
			cl.tele.errs.Inc()
			return wire.Frame{}, err
		}
		lastErr = err
	}
	cl.tele.errs.Inc()
	return wire.Frame{}, fmt.Errorf("salnet: %s gave up after %d attempts: %w", f.Op, cl.cfg.MaxRetries+1, lastErr)
}

// jittered applies equal jitter: half the nominal backoff fixed, half
// uniformly random, so independent clients spread their retries.
func (cl *Client) jittered(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	cl.rngMu.Lock()
	r := cl.rng.Uint64()
	cl.rngMu.Unlock()
	half := d / 2
	return half + time.Duration(r%uint64(half)+1)
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Ping round-trips payload through the server.
func (cl *Client) Ping(ctx context.Context, payload []byte) error {
	resp, err := cl.do(ctx, wire.Frame{Op: wire.OpPing, Payload: payload})
	if err != nil {
		return err
	}
	if string(resp.Payload) != string(payload) {
		return fmt.Errorf("%w: ping echo mismatch", ErrConnBroken)
	}
	return nil
}

// Put stores data under key, replacing any existing object (the serving
// layer's Put is an upsert so retries are idempotent).
func (cl *Client) Put(ctx context.Context, key string, data []byte) error {
	_, err := cl.do(ctx, wire.Frame{Op: wire.OpPut, Key: []byte(key), Payload: data})
	return err
}

// Get reads the whole object at key.
func (cl *Client) Get(ctx context.Context, key string) ([]byte, error) {
	resp, err := cl.do(ctx, wire.Frame{Op: wire.OpGet, Key: []byte(key)})
	if err != nil {
		return nil, err
	}
	return resp.Payload, nil
}

// GetRange reads n bytes at offset off (n = 0 means through the end).
func (cl *Client) GetRange(ctx context.Context, key string, off uint64, n uint32) ([]byte, error) {
	resp, err := cl.do(ctx, wire.Frame{Op: wire.OpGet, Key: []byte(key), Offset: off, Length: n})
	if err != nil {
		return nil, err
	}
	return resp.Payload, nil
}

// Delete removes the object at key. Deleting a missing object succeeds.
func (cl *Client) Delete(ctx context.Context, key string) error {
	_, err := cl.do(ctx, wire.Frame{Op: wire.OpDelete, Key: []byte(key)})
	return err
}

// List returns the stored object names.
func (cl *Client) List(ctx context.Context) ([]string, error) {
	resp, err := cl.do(ctx, wire.Frame{Op: wire.OpList})
	if err != nil {
		return nil, err
	}
	if len(resp.Payload) == 0 {
		return nil, nil
	}
	var names []string
	for start, i := 0, 0; i <= len(resp.Payload); i++ {
		if i == len(resp.Payload) || resp.Payload[i] == '\n' {
			names = append(names, string(resp.Payload[start:i]))
			start = i + 1
		}
	}
	return names, nil
}

// ShardMap fetches the server's current shard map.
func (cl *Client) ShardMap(ctx context.Context) (*shardmap.Map, error) {
	resp, err := cl.do(ctx, wire.Frame{Op: wire.OpShardMap})
	if err != nil {
		return nil, err
	}
	m, err := shardmap.Decode(resp.Payload)
	if err != nil {
		return nil, fmt.Errorf("%w: shard map response: %v", ErrConnBroken, err)
	}
	return m, nil
}

// Repair runs one cluster repair pass and returns the chunk copies created.
func (cl *Client) Repair(ctx context.Context) (int, error) {
	resp, err := cl.do(ctx, wire.Frame{Op: wire.OpRepair})
	if err != nil {
		return 0, err
	}
	if len(resp.Payload) != 8 {
		return 0, fmt.Errorf("%w: repair response payload %d bytes", ErrConnBroken, len(resp.Payload))
	}
	return int(binary.BigEndian.Uint64(resp.Payload)), nil
}

// clientConn is one pooled connection: a locked writer plus a demultiplexing
// read loop that routes responses to waiting calls by request id.
type clientConn struct {
	nc net.Conn

	wmu  sync.Mutex
	bw   *bufio.Writer
	wbuf []byte

	pmu     sync.Mutex
	pending map[uint64]chan wire.Frame
	dead    bool
	err     error
}

func (cc *clientConn) isDead() bool {
	cc.pmu.Lock()
	defer cc.pmu.Unlock()
	return cc.dead
}

// fail marks the connection dead and wakes every pending call with a
// transport error (closed channel).
func (cc *clientConn) fail(err error) {
	cc.pmu.Lock()
	if cc.dead {
		cc.pmu.Unlock()
		return
	}
	cc.dead = true
	cc.err = err
	pending := cc.pending
	cc.pending = map[uint64]chan wire.Frame{}
	cc.pmu.Unlock()
	cc.nc.Close()
	for _, ch := range pending {
		close(ch)
	}
}

// readLoop demultiplexes response frames until the connection dies. Response
// payloads are copied out of the scratch buffer before handoff.
func (cc *clientConn) readLoop() {
	br := bufio.NewReaderSize(cc.nc, 64<<10)
	var buf []byte
	for {
		f, b, err := wire.ReadFrame(br, buf)
		buf = b
		if err != nil {
			// EOF, a mid-frame cut (io.ErrUnexpectedEOF — the truncated-frame
			// fault), or a decode failure: either way the stream is done.
			cc.fail(fmt.Errorf("%w: %v", ErrConnBroken, err))
			return
		}
		resp := wire.Frame{ID: f.ID, Op: f.Op, Status: f.Status, Offset: f.Offset, Length: f.Length}
		if len(f.Payload) > 0 {
			resp.Payload = append([]byte(nil), f.Payload...)
		}
		cc.pmu.Lock()
		ch := cc.pending[f.ID]
		delete(cc.pending, f.ID)
		cc.pmu.Unlock()
		if ch != nil {
			ch <- resp
		}
	}
}

// roundTrip sends one frame and waits for its response or ctx expiry.
func (cc *clientConn) roundTrip(ctx context.Context, f *wire.Frame) (wire.Frame, error) {
	if err := ctx.Err(); err != nil {
		// Already canceled: send nothing, or a fast response could win the
		// select below and the canceled call would succeed.
		return wire.Frame{}, err
	}
	ch := make(chan wire.Frame, 1)
	cc.pmu.Lock()
	if cc.dead {
		err := cc.err
		cc.pmu.Unlock()
		return wire.Frame{}, fmt.Errorf("%w: %v", ErrConnBroken, err)
	}
	cc.pending[f.ID] = ch
	cc.pmu.Unlock()

	cc.wmu.Lock()
	var err error
	cc.wbuf, err = wire.AppendFrame(cc.wbuf[:0], f)
	if err == nil {
		if _, werr := cc.bw.Write(cc.wbuf); werr != nil {
			err = fmt.Errorf("%w: %v", ErrConnBroken, werr)
		} else if werr := cc.bw.Flush(); werr != nil {
			err = fmt.Errorf("%w: %v", ErrConnBroken, werr)
		}
	}
	cc.wmu.Unlock()
	if err != nil {
		cc.pmu.Lock()
		delete(cc.pending, f.ID)
		cc.pmu.Unlock()
		if !errors.Is(err, ErrConnBroken) {
			return wire.Frame{}, err // encode error: not retryable
		}
		cc.fail(err)
		return wire.Frame{}, err
	}

	select {
	case resp, ok := <-ch:
		if !ok {
			return wire.Frame{}, fmt.Errorf("%w: connection died awaiting response", ErrConnBroken)
		}
		return resp, nil
	case <-ctx.Done():
		cc.pmu.Lock()
		delete(cc.pending, f.ID)
		cc.pmu.Unlock()
		return wire.Frame{}, ctx.Err()
	}
}
