package salnet

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"salamander/internal/blockdev"
	"salamander/internal/difs"
	"salamander/internal/faultinject"
	"salamander/internal/stats"
	"salamander/internal/telemetry"
	"salamander/internal/wire"
)

// testCluster builds a small in-memory cluster: n nodes x disks minidisks x
// lbas oPage slots, 4-oPage chunks so modest objects span several chunks.
func testCluster(t *testing.T, n, disks, lbas int) (*difs.Cluster, []*blockdev.MemDevice) {
	t.Helper()
	cfg := difs.DefaultConfig()
	cfg.ChunkOPages = 4
	c, err := difs.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var devs []*blockdev.MemDevice
	for i := 0; i < n; i++ {
		d := blockdev.NewMemDevice(disks, lbas)
		devs = append(devs, d)
		c.AddNode(d)
	}
	return c, devs
}

// startServer runs a server over loopback and registers shutdown cleanup.
func startServer(t *testing.T, cluster *difs.Cluster, cfg ServerConfig) (*Server, string) {
	t.Helper()
	srv := NewServer(cluster, cfg)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, addr.String()
}

func dialTest(t *testing.T, cfg ClientConfig) *Client {
	t.Helper()
	cl, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func testBytes(rng *stats.RNG, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Uint64())
	}
	return b
}

func TestRoundTripAllOps(t *testing.T) {
	cluster, devs := testCluster(t, 5, 4, 64)
	_, addr := startServer(t, cluster, ServerConfig{})
	cl := dialTest(t, ClientConfig{Addr: addr})
	ctx := context.Background()
	rng := stats.NewRNG(42)

	if err := ping(ctx, cl, []byte("hello")); err != nil {
		t.Fatalf("ping: %v", err)
	}

	want := testBytes(rng, 50000)
	if err := cl.Put(ctx, "obj", want); err != nil {
		t.Fatalf("put: %v", err)
	}
	got, err := cl.Get(ctx, "obj")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("get returned different bytes than put")
	}

	// Ranged read: middle slice, then an open-ended tail.
	part, err := getRange(ctx, cl, "obj", 1000, 2000)
	if err != nil {
		t.Fatalf("get range: %v", err)
	}
	if !bytes.Equal(part, want[1000:3000]) {
		t.Fatal("ranged read mismatch")
	}
	tail, err := getRange(ctx, cl, "obj", uint64(len(want)-100), 0)
	if err != nil {
		t.Fatalf("get tail: %v", err)
	}
	if !bytes.Equal(tail, want[len(want)-100:]) {
		t.Fatal("tail read mismatch")
	}

	// Put is an upsert: same key again replaces the content.
	want2 := testBytes(rng, 30000)
	if err := cl.Put(ctx, "obj", want2); err != nil {
		t.Fatalf("upsert: %v", err)
	}
	if got, err = cl.Get(ctx, "obj"); err != nil || !bytes.Equal(got, want2) {
		t.Fatalf("get after upsert: err=%v match=%v", err, bytes.Equal(got, want2))
	}

	if err := cl.Put(ctx, "other", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if names := cluster.Objects(); len(names) != 2 {
		t.Fatalf("objects: got %v, want 2 names", names)
	}

	// Repair with a failed minidisk repairs over the wire.
	if err := devs[0].FailMinidisk(devs[0].Minidisks()[0].ID); err != nil {
		t.Fatal(err)
	}
	if cluster.PendingRepairs() == 0 {
		t.Fatal("no repairs queued after minidisk failure")
	}
	resp, err := cl.do(ctx, wire.Frame{Op: wire.OpRepair})
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if len(resp.Payload) != 8 || binary.BigEndian.Uint64(resp.Payload) == 0 {
		t.Fatalf("repair over the wire created no copies: payload %x", resp.Payload)
	}

	// Delete is idempotent: removing a live then missing object both succeed.
	if err := cl.Delete(ctx, "obj"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := cl.Delete(ctx, "obj"); err != nil {
		t.Fatalf("idempotent delete: %v", err)
	}
	if _, err := cl.Get(ctx, "obj"); !errors.Is(err, difs.ErrNotFound) {
		t.Fatalf("get after delete: want difs.ErrNotFound, got %v", err)
	}

	if bad := cluster.CheckInvariants(); len(bad) > 0 {
		t.Fatalf("invariants violated: %v", bad)
	}
}

// TestGetRangeHostileOffsets sends ranged reads with offsets and lengths a
// hostile or buggy client could craft. Offsets at or above 2^63 used to turn
// negative when converted to int, panicking the worker with a negative slice
// index and killing the whole server; every range must instead clamp to the
// object's bounds.
func TestGetRangeHostileOffsets(t *testing.T) {
	cluster, _ := testCluster(t, 5, 4, 64)
	_, addr := startServer(t, cluster, ServerConfig{})
	cl := dialTest(t, ClientConfig{Addr: addr})
	ctx := context.Background()

	want := testBytes(stats.NewRNG(3), 10000)
	if err := cl.Put(ctx, "obj", want); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		off  uint64
		n    uint32
		want []byte
	}{
		{1 << 63, 0, nil},               // sign-bit offset: clamp to empty
		{^uint64(0), ^uint32(0), nil},   // max offset and length
		{uint64(len(want)), 10, nil},    // exactly at the end
		{uint64(len(want)) + 1, 0, nil}, // just past the end
		{9990, ^uint32(0), want[9990:]}, // huge length clamps to the tail
		{0, ^uint32(0), want},           // huge length from the start
		{5000, 100, want[5000:5100]},    // ordinary range still works
	}
	for _, tc := range cases {
		got, err := getRange(ctx, cl, "obj", tc.off, tc.n)
		if err != nil {
			t.Fatalf("GetRange(off=%d, n=%d): %v", tc.off, tc.n, err)
		}
		if !bytes.Equal(got, tc.want) {
			t.Fatalf("GetRange(off=%d, n=%d): got %d bytes, want %d", tc.off, tc.n, len(got), len(tc.want))
		}
	}
	// The server survived every hostile range: a fresh op still works.
	if err := ping(ctx, cl, []byte("alive")); err != nil {
		t.Fatalf("server dead after hostile ranges: %v", err)
	}
}

// TestRetiredOpcodesRejected: opcodes 5 and 7 (a retired object listing and
// shard-map fetch) stay reserved on the wire. A frame carrying one decodes and
// is answered StatusBadRequest, and the connection keeps serving.
func TestRetiredOpcodesRejected(t *testing.T) {
	cluster, _ := testCluster(t, 3, 2, 64)
	_, addr := startServer(t, cluster, ServerConfig{})
	cl := dialTest(t, ClientConfig{Addr: addr})
	ctx := context.Background()
	for _, op := range []wire.Op{5, 7} {
		resp, err := cl.do(ctx, wire.Frame{Op: op})
		if !errors.Is(err, wire.ErrBadRequest) || resp.Status != wire.StatusBadRequest {
			t.Fatalf("opcode %d: status %v, err %v; want StatusBadRequest", op, resp.Status, err)
		}
	}
	if err := ping(ctx, cl, []byte("alive")); err != nil {
		t.Fatalf("connection dead after retired opcodes: %v", err)
	}
}

// TestFailedOverwriteKeepsOldObject checks the upsert's atomicity: when the
// replacement cannot be placed (no space), the previous object must survive
// intact — the non-atomic delete-then-put it replaced destroyed the old data
// on exactly this path.
func TestFailedOverwriteKeepsOldObject(t *testing.T) {
	// 3 nodes x 1 minidisk x 8 oPages at 4-oPage chunks = 2 slots per node.
	// A 1-chunk object at factor 3 takes one slot on every node; a 2-chunk
	// replacement needs 6 free slots but only 3 remain.
	cluster, _ := testCluster(t, 3, 1, 8)
	_, addr := startServer(t, cluster, ServerConfig{})
	cl := dialTest(t, ClientConfig{Addr: addr})
	ctx := context.Background()

	want := testBytes(stats.NewRNG(9), 10000) // one 16KB chunk
	if err := cl.Put(ctx, "obj", want); err != nil {
		t.Fatal(err)
	}
	if err := cl.Put(ctx, "obj", testBytes(stats.NewRNG(10), 20000)); !errors.Is(err, difs.ErrNoSpace) {
		t.Fatalf("oversized overwrite: want difs.ErrNoSpace, got %v", err)
	}
	got, err := cl.Get(ctx, "obj")
	if err != nil {
		t.Fatalf("get after failed overwrite: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("failed overwrite destroyed the previous object")
	}
	if bad := cluster.CheckInvariants(); len(bad) > 0 {
		t.Fatalf("invariants violated: %v", bad)
	}
}

// TestStalledReaderDropped checks the response write deadline: a client that
// sends requests but never reads responses must be disconnected once TCP
// backpressure stalls a write, instead of pinning workers of the shared pool
// forever and wedging both other connections and Shutdown's drain.
func TestStalledReaderDropped(t *testing.T) {
	cluster, _ := testCluster(t, 5, 4, 64)
	reg := telemetry.NewRegistry()
	srv, addr := startServer(t, cluster, ServerConfig{Workers: 4, WriteTimeout: 100 * time.Millisecond})
	srv.Instrument(reg, nil)
	cl := dialTest(t, ClientConfig{Addr: addr})
	ctx := context.Background()

	big := testBytes(stats.NewRNG(11), 256<<10)
	if err := cl.Put(ctx, "big", big); err != nil {
		t.Fatal(err)
	}

	// A raw connection with a tiny receive buffer that never reads: pipelined
	// gets of the 256KB object overwhelm the socket buffers, so the server's
	// response writes block on backpressure until the deadline fires.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if tc, ok := raw.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(4 << 10)
	}
	var reqs []byte
	for i := 0; i < 64; i++ {
		f := wire.Frame{ID: uint64(i), Op: wire.OpGet, Key: []byte("big")}
		reqs, err = wire.AppendFrame(reqs, &f)
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := raw.Write(reqs); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for reg.Counter("net.server.write_timeouts").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled connection never hit the write deadline")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The pool is free again: a well-behaved client still gets served.
	wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if got, err := cl.Get(wctx, "big"); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("healthy client starved after a stalled peer: %v", err)
	}
	// And the drain is not wedged behind the dead connection.
	sctx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown wedged by stalled connection: %v", err)
	}
}

// TestPipelinedConcurrentCalls drives many concurrent calls over a small
// connection pool: every call multiplexes onto a shared connection, responses
// come back out of order, and the demux must route each to its caller.
func TestPipelinedConcurrentCalls(t *testing.T) {
	cluster, _ := testCluster(t, 5, 6, 256)
	srv, addr := startServer(t, cluster, ServerConfig{Workers: 8})
	reg := telemetry.NewRegistry()
	srv.Instrument(reg, nil)
	cl := dialTest(t, ClientConfig{Addr: addr, Conns: 2})
	ctx := context.Background()

	const workers, opsEach = 16, 20
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := stats.NewRNG(uint64(1000 + w))
			for i := 0; i < opsEach; i++ {
				key := fmt.Sprintf("w%d-o%d", w, i%5)
				data := testBytes(rng, 256+rng.Intn(4096))
				if err := cl.Put(ctx, key, data); err != nil {
					errCh <- fmt.Errorf("put %s: %w", key, err)
					return
				}
				got, err := cl.Get(ctx, key)
				if err != nil {
					errCh <- fmt.Errorf("get %s: %w", key, err)
					return
				}
				if !bytes.Equal(got, data) {
					errCh <- fmt.Errorf("%s: response routed to wrong caller or corrupted", key)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// 16 goroutines over 2 connections: the server must have seen every
	// request, and the cluster must still be coherent.
	if n := reg.Counter("net.server.requests").Value(); n < workers*opsEach*2 {
		t.Fatalf("server saw %d requests, want >= %d", n, workers*opsEach*2)
	}
	if bad := cluster.CheckInvariants(); len(bad) > 0 {
		t.Fatalf("invariants violated: %v", bad)
	}
}

// TestNetworkEquivalence is the acceptance check: the same seeded op sequence
// applied over the wire and directly in-process must leave byte-identical
// object contents.
func TestNetworkEquivalence(t *testing.T) {
	netCluster, _ := testCluster(t, 5, 6, 256)
	dirCluster, _ := testCluster(t, 5, 6, 256)
	_, addr := startServer(t, netCluster, ServerConfig{})
	cl := dialTest(t, ClientConfig{Addr: addr})
	ctx := context.Background()

	// One deterministic schedule, two executions.
	type op struct {
		kind int // 0 put, 1 delete
		key  string
		data []byte
	}
	rng := stats.NewRNG(7)
	var ops []op
	for i := 0; i < 120; i++ {
		key := fmt.Sprintf("o%d", rng.Intn(20))
		switch rng.Intn(4) {
		case 0:
			ops = append(ops, op{kind: 1, key: key})
		default:
			ops = append(ops, op{kind: 0, key: key, data: testBytes(rng, 100+rng.Intn(20000))})
		}
	}
	for _, o := range ops {
		switch o.kind {
		case 0:
			if err := cl.Put(ctx, o.key, o.data); err != nil {
				t.Fatalf("net put %s: %v", o.key, err)
			}
			// Direct path mirrors the server's atomic upsert semantics.
			if err := dirCluster.ReplaceCtx(context.Background(), o.key, o.data); err != nil {
				t.Fatalf("direct replace %s: %v", o.key, err)
			}
		case 1:
			if err := cl.Delete(ctx, o.key); err != nil {
				t.Fatalf("net delete %s: %v", o.key, err)
			}
			if err := dirCluster.Delete(o.key); err != nil && !errors.Is(err, difs.ErrNotFound) {
				t.Fatal(err)
			}
		}
	}

	netNames := netCluster.Objects()
	dirNames := dirCluster.Objects()
	if len(netNames) != len(dirNames) {
		t.Fatalf("object sets differ: net=%v direct=%v", netNames, dirNames)
	}
	for _, name := range dirNames {
		want, err := dirCluster.Get(name)
		if err != nil {
			t.Fatalf("direct get %s: %v", name, err)
		}
		got, err := cl.Get(ctx, name)
		if err != nil {
			t.Fatalf("net get %s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("object %s differs between network and direct execution", name)
		}
	}
}

// TestFaultInjectionRecovery arms all three network failpoints and checks the
// client's retry/reconnect path absorbs every injected fault: all ops succeed
// and the registry's recovery accounting matches.
func TestFaultInjectionRecovery(t *testing.T) {
	cluster, _ := testCluster(t, 5, 6, 256)
	reg := telemetry.NewRegistry()
	fr := faultinject.New(99)
	fr.Instrument(reg, nil)

	srv := NewServer(cluster, ServerConfig{InjectedLatency: time.Millisecond})
	srv.InjectFaults(fr)
	srv.Instrument(reg, nil)
	for site, prob := range map[string]float64{
		"net.conn.drop":      0.05,
		"net.resp.slow":      0.03,
		"net.frame.truncate": 0.05,
	} {
		if err := fr.Arm(site, faultinject.Plan{Prob: prob}); err != nil {
			t.Fatal(err)
		}
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	cl := dialTest(t, ClientConfig{Addr: addr.String(), MaxRetries: 10, RetryBackoff: time.Millisecond})
	cl.Instrument(reg, nil)
	cl.InjectFaults(fr)
	ctx := context.Background()
	rng := stats.NewRNG(5)

	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("o%d", i%10)
		switch rng.Intn(3) {
		case 0, 1:
			if err := cl.Put(ctx, key, testBytes(rng, 100+rng.Intn(4000))); err != nil {
				t.Fatalf("op %d put %s: %v", i, key, err)
			}
		case 2:
			if _, err := cl.Get(ctx, key); err != nil && !errors.Is(err, difs.ErrNotFound) {
				t.Fatalf("op %d get %s: %v", i, key, err)
			}
		}
	}

	injected := reg.Counter("net.faults_injected").Value()
	recovered := reg.Counter("net.faults_recovered").Value()
	retries := reg.Counter("net.client.retries").Value()
	reconnects := reg.Counter("net.client.reconnects").Value()
	if injected == 0 {
		t.Fatal("no network faults injected — sites armed at these probabilities must fire over 200 ops")
	}
	if retries == 0 || recovered == 0 {
		t.Fatalf("client absorbed nothing: retries=%d recovered=%d (injected=%d)", retries, recovered, injected)
	}
	// Drops and truncations kill the connection; the pool must have redialed.
	if reconnects == 0 {
		t.Fatal("no reconnects despite injected connection drops")
	}
	if bad := cluster.CheckInvariants(); len(bad) > 0 {
		t.Fatalf("invariants violated under network faults: %v", bad)
	}
}

// TestGracefulDrain checks Shutdown answers every admitted request before
// closing connections, and that post-drain traffic is cleanly refused.
func TestGracefulDrain(t *testing.T) {
	cluster, _ := testCluster(t, 5, 6, 256)
	reg := telemetry.NewRegistry()
	fr := faultinject.New(1)
	srv := NewServer(cluster, ServerConfig{InjectedLatency: 20 * time.Millisecond})
	srv.Instrument(reg, nil)
	srv.InjectFaults(fr)
	// Every request gets injected latency, so requests are reliably in flight
	// when Shutdown lands.
	if err := fr.Arm("net.resp.slow", faultinject.Plan{Prob: 1}); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := dialTest(t, ClientConfig{Addr: addr.String(), MaxRetries: 0})
	ctx := context.Background()

	const inflight = 8
	var wg sync.WaitGroup
	errs := make([]error, inflight)
	for i := 0; i < inflight; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = cl.Put(ctx, fmt.Sprintf("drain-%d", i), bytes.Repeat([]byte{byte(i)}, 1000))
		}()
	}
	time.Sleep(10 * time.Millisecond) // let the puts reach the server
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("in-flight put %d not answered before drain: %v", i, err)
		}
	}
	// Every admitted object landed and is intact.
	for i := 0; i < inflight; i++ {
		got, err := cluster.Get(fmt.Sprintf("drain-%d", i))
		if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 1000)) {
			t.Fatalf("drained object %d missing or corrupt: %v", i, err)
		}
	}
	// Post-drain traffic fails: the listener is closed and conns are gone.
	if err := ping(ctx, cl, []byte("late")); err == nil {
		t.Fatal("ping succeeded after shutdown")
	}
	// Shutdown is idempotent.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	if bad := cluster.CheckInvariants(); len(bad) > 0 {
		t.Fatalf("invariants violated after drain: %v", bad)
	}
}

// TestOpTimeout checks a per-op deadline surfaces as wire.ErrTimeout on the
// client without being retried (a deadline is not a transport failure).
func TestOpTimeout(t *testing.T) {
	cluster, _ := testCluster(t, 5, 6, 256)
	_, addr := startServer(t, cluster, ServerConfig{OpTimeout: time.Nanosecond})
	reg := telemetry.NewRegistry()
	cl := dialTest(t, ClientConfig{Addr: addr})
	cl.Instrument(reg, nil)

	err := cl.Put(context.Background(), "obj", make([]byte, 100000))
	if !errors.Is(err, wire.ErrTimeout) {
		t.Fatalf("want wire.ErrTimeout, got %v", err)
	}
	if n := reg.Counter("net.client.retries").Value(); n != 0 {
		t.Fatalf("status error was retried %d times", n)
	}
	// The aborted put must not leak slots.
	total, free := cluster.Capacity()
	if total != free {
		t.Fatalf("timed-out put leaked slots: total=%d free=%d", total, free)
	}
}

// TestClientCtxCancel checks a canceled caller context aborts the call
// without wedging the connection for other requests.
func TestClientCtxCancel(t *testing.T) {
	cluster, _ := testCluster(t, 5, 6, 256)
	_, addr := startServer(t, cluster, ServerConfig{})
	cl := dialTest(t, ClientConfig{Addr: addr})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := cl.Put(ctx, "obj", []byte("x")); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The connection is still usable.
	if err := ping(context.Background(), cl, []byte("ok")); err != nil {
		t.Fatalf("ping after canceled call: %v", err)
	}
}

// TestSlowOpLog checks the slow-op log fires only for ops above the
// configured threshold: fast ops leave no trace, while an op slowed past the
// threshold (injected latency) bumps net.server.slow_ops and records a
// KindSlowOp event carrying op, key, and duration.
func TestSlowOpLog(t *testing.T) {
	cluster, _ := testCluster(t, 5, 4, 64)
	fr := faultinject.New(7)
	srv := NewServer(cluster, ServerConfig{
		SlowOpThreshold: 20 * time.Millisecond,
		InjectedLatency: 50 * time.Millisecond,
	})
	srv.InjectFaults(fr)
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(64)
	srv.Instrument(reg, tr)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	cl := dialTest(t, ClientConfig{Addr: addr.String()})

	// Fast ops: far under threshold, nothing may fire.
	for i := 0; i < 5; i++ {
		if err := ping(context.Background(), cl, []byte("quick")); err != nil {
			t.Fatal(err)
		}
	}
	if n := reg.Counter("net.server.slow_ops").Value(); n != 0 {
		t.Fatalf("slow_ops = %d after fast ops, want 0", n)
	}

	// Slow op: injected latency pushes it over the threshold.
	if err := fr.Arm("net.resp.slow", faultinject.Plan{Prob: 1}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Put(context.Background(), "slowkey", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("net.server.slow_ops").Value(); n != 1 {
		t.Fatalf("slow_ops = %d after injected-slow put, want 1", n)
	}
	var ev *telemetry.Event
	for _, e := range tr.Events() {
		if e.Kind == telemetry.KindSlowOp {
			e := e
			ev = &e
		}
	}
	if ev == nil {
		t.Fatal("no KindSlowOp event recorded")
	}
	if !bytes.Contains([]byte(ev.Detail), []byte("slowkey")) {
		t.Fatalf("slow-op detail %q does not name the key", ev.Detail)
	}
	if ev.N < (20 * time.Millisecond).Nanoseconds() {
		t.Fatalf("slow-op duration %dns under the threshold", ev.N)
	}
}

// TestDrainingProbe checks Draining() tracks the shutdown lifecycle: false
// while serving, true from the moment Shutdown begins, and still true after.
func TestDrainingProbe(t *testing.T) {
	cluster, _ := testCluster(t, 3, 2, 64)
	srv, _ := startServer(t, cluster, ServerConfig{})
	if srv.Draining() {
		t.Fatal("Draining() = true before shutdown")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if !srv.Draining() {
		t.Fatal("Draining() = false after shutdown")
	}
}

// TestJitteredBackoffBounds pins the equal-jitter contract: every draw lands
// in (d/2, d], and draws actually vary.
func TestJitteredBackoffBounds(t *testing.T) {
	cl := &Client{rng: stats.NewRNG(7)}
	const d = 8 * time.Millisecond
	seen := map[time.Duration]bool{}
	for i := 0; i < 200; i++ {
		got := cl.jittered(d)
		if got <= d/2 || got > d {
			t.Fatalf("jittered(%v) = %v, want in (%v, %v]", d, got, d/2, d)
		}
		seen[got] = true
	}
	if len(seen) < 10 {
		t.Fatalf("jitter produced only %d distinct values over 200 draws", len(seen))
	}
	if got := cl.jittered(1); got != 1 {
		t.Fatalf("jittered(1) = %v", got)
	}
}

// TestRetryBudgetExhausted: once cumulative backoff would exceed the
// per-call budget, the call gives up immediately instead of sleeping on.
func TestRetryBudgetExhausted(t *testing.T) {
	cluster, _ := testCluster(t, 3, 2, 64)
	srv := NewServer(cluster, ServerConfig{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := dialTest(t, ClientConfig{
		Addr:         addr.String(),
		MaxRetries:   20,
		RetryBackoff: 20 * time.Millisecond,
		RetryBudget:  30 * time.Millisecond,
	})
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = ping(context.Background(), cl, []byte("x"))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("ping of a dead server succeeded")
	}
	if !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Fatalf("err = %v, want retry-budget give-up", err)
	}
	// 20 retries at 20ms nominal backoff would sleep seconds; the 30ms
	// budget admits at most two sleeps.
	if elapsed > time.Second {
		t.Fatalf("budget-capped call took %v", elapsed)
	}
}

// TestRetryStopsBeforeDeadline: a retry sleep that would outlive the
// context deadline is never started — the call fails fast with the last
// transport error instead of burning the caller's remaining time.
func TestRetryStopsBeforeDeadline(t *testing.T) {
	cluster, _ := testCluster(t, 3, 2, 64)
	srv := NewServer(cluster, ServerConfig{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := dialTest(t, ClientConfig{
		Addr:         addr.String(),
		MaxRetries:   20,
		RetryBackoff: 40 * time.Millisecond,
		RetryBudget:  -1, // uncapped: the deadline must do the bounding
	})
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	ctx, cancel2 := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel2()
	start := time.Now()
	err = ping(ctx, cl, []byte("x"))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("ping of a dead server succeeded")
	}
	if !strings.Contains(err.Error(), "out of time") && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline-aware give-up", err)
	}
	if elapsed > time.Second {
		t.Fatalf("deadline-bounded call took %v", elapsed)
	}
}

// getRange reads n bytes of key at offset off (n = 0 means through the end)
// with a ranged OpGet frame.
func getRange(ctx context.Context, cl *Client, key string, off uint64, n uint32) ([]byte, error) {
	resp, err := cl.do(ctx, wire.Frame{Op: wire.OpGet, Key: []byte(key), Offset: off, Length: n})
	return resp.Payload, err
}

// ping round-trips payload through an OpPing frame.
func ping(ctx context.Context, cl *Client, payload []byte) error {
	resp, err := cl.do(ctx, wire.Frame{Op: wire.OpPing, Payload: payload})
	if err != nil {
		return err
	}
	if !bytes.Equal(resp.Payload, payload) {
		return fmt.Errorf("%w: ping echo mismatch", ErrConnBroken)
	}
	return nil
}
