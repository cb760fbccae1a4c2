package salnet

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"salamander/internal/blockdev"
	"salamander/internal/difs"
	"salamander/internal/shardmap"
	"salamander/internal/stats"
	"salamander/internal/store"
	"salamander/internal/wire"
)

// subsetServer builds a subset-scoped cluster over its own devices plus a
// shared manifest store, and serves it. Returns the server and its address.
func subsetServer(t *testing.T, shards int, own []int, st *store.Mem) (*Server, string) {
	t.Helper()
	cfg := difs.DefaultConfig()
	cfg.ChunkOPages = 4
	cfg.Shards = shards
	cfg.OwnShards = own
	c, err := difs.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		c.AddNode(blockdev.NewMemDevice(2, 64))
	}
	if _, err := c.AttachMeta(st.Reopen()); err != nil {
		t.Fatal(err)
	}
	return startServer(t, c, ServerConfig{})
}

// fleetMap builds a 4-shard map: shards 0-1 at addrA, shards 2-3 at addrB.
func fleetMap(t *testing.T, addrA, addrB string) *shardmap.Map {
	t.Helper()
	m := shardmap.New(4)
	m, err := m.Assign(addrA, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err = m.Assign(addrB, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRouterFleet: a two-process fleet serves one namespace through the
// Router — keys land on their owners, batch reads fan out across endpoints,
// and per-endpoint stats see both sides.
func TestRouterFleet(t *testing.T) {
	st := store.NewMem()
	srvA, addrA := subsetServer(t, 4, []int{0, 1}, st)
	srvB, addrB := subsetServer(t, 4, []int{2, 3}, st)
	m := fleetMap(t, addrA, addrB)
	for _, s := range []*Server{srvA, srvB} {
		if err := s.SetShardMap(m); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewRouter(RouterConfig{Map: m})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })

	ctx := context.Background()
	rng := stats.NewRNG(11)
	// Golden (difs shard_test.go): at 4 shards o0,o3→0 (A), o1,o2→2 (B).
	keys := []string{"o0", "o1", "o2", "o3"}
	want := map[string][]byte{}
	for _, k := range keys {
		want[k] = testBytes(rng, 9000)
		if err := r.Put(ctx, k, want[k]); err != nil {
			t.Fatalf("put %q: %v", k, err)
		}
	}
	for _, k := range keys {
		got, err := r.Get(ctx, k)
		if err != nil || !bytes.Equal(got, want[k]) {
			t.Fatalf("get %q: %v", k, err)
		}
	}
	if _, err := r.do(ctx, wire.Frame{Op: wire.OpDelete, Key: []byte("o0")}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(ctx, "o0"); !errors.Is(err, difs.ErrNotFound) {
		t.Fatalf("deleted key served: %v", err)
	}
	stats := r.EndpointStats()
	if len(stats) != 2 {
		t.Fatalf("endpoint stats cover %d endpoints, want 2", len(stats))
	}
	for _, es := range stats {
		if es.Ops == 0 {
			t.Errorf("endpoint %s saw no traffic", es.Endpoint)
		}
		if es.Redirects != 0 {
			t.Errorf("endpoint %s redirected %d ops with a fresh map", es.Endpoint, es.Redirects)
		}
	}
}

// TestRouterNotOwnerRedirect: a router holding a stale map sends a key to
// the wrong server; the NotOwner rejection carries the fleet's newer map and
// the router transparently retries against the right owner.
func TestRouterNotOwnerRedirect(t *testing.T) {
	st := store.NewMem()
	srvA, addrA := subsetServer(t, 4, []int{0, 1}, st)
	srvB, addrB := subsetServer(t, 4, []int{2, 3}, st)
	fresh := fleetMap(t, addrA, addrB) // epoch 3 after two Assigns
	for _, s := range []*Server{srvA, srvB} {
		if err := s.SetShardMap(fresh); err != nil {
			t.Fatal(err)
		}
	}
	// Stale view: every shard at A (epoch 2 < fresh).
	stale := shardmap.New(4)
	stale, err := stale.Assign(addrA, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if stale.Epoch >= fresh.Epoch {
		t.Fatalf("test setup: stale epoch %d not older than fresh %d", stale.Epoch, fresh.Epoch)
	}
	r, err := NewRouter(RouterConfig{Map: stale})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })

	ctx := context.Background()
	rng := stats.NewRNG(13)
	data := testBytes(rng, 4000)
	// o1 routes to shard 2 — owned by B, but the stale map says A.
	if err := r.Put(ctx, "o1", data); err != nil {
		t.Fatalf("put through stale map: %v", err)
	}
	got, err := r.Get(ctx, "o1")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get after redirect: %v", err)
	}
	r.mu.Lock()
	epoch := r.m.Epoch
	r.mu.Unlock()
	if epoch != fresh.Epoch {
		t.Errorf("router map epoch %d after redirect, want %d", epoch, fresh.Epoch)
	}
	redirected := false
	for _, es := range r.EndpointStats() {
		if es.Endpoint == addrA && es.Redirects > 0 {
			redirected = true
		}
	}
	if !redirected {
		t.Error("stale-map op recorded no redirect against the wrong owner")
	}
}

// TestServerShardMap: a NotOwner rejection carries the installed map, and
// no payload before one is installed; installs never roll the epoch
// backwards.
func TestServerShardMap(t *testing.T) {
	srv, addr := subsetServer(t, 4, []int{0, 1}, store.NewMem())
	cl := dialTest(t, ClientConfig{Addr: addr})
	ctx := context.Background()

	// o1 routes to shard 2, which this server does not own.
	foreign := wire.Frame{Op: wire.OpGet, Key: []byte("o1")}
	resp, err := cl.do(ctx, foreign)
	if !errors.Is(err, difs.ErrNotOwner) || len(resp.Payload) != 0 {
		t.Fatalf("rejection before install: err %v, %d payload bytes", err, len(resp.Payload))
	}
	m := shardmap.New(4)
	m, err = m.Assign(addr, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.SetShardMap(m); err != nil {
		t.Fatal(err)
	}
	resp, err = cl.do(ctx, foreign)
	if !errors.Is(err, difs.ErrNotOwner) {
		t.Fatalf("foreign key after install: %v", err)
	}
	got, err := shardmap.Decode(resp.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != m.Epoch || got.Shards != m.Shards {
		t.Fatalf("rejection carried map %s, want %s", got, m)
	}
	older := shardmap.New(4) // epoch 1 < installed
	if err := srv.SetShardMap(older); err == nil {
		t.Error("older-epoch map installed over newer")
	}
	if srv.ShardMap().Epoch != m.Epoch {
		t.Error("installed map changed after refused downgrade")
	}
}

// TestRouterVacatedShard: a map whose shard has no owner (mid-drain, no
// replacement yet) fails that key's ops with ErrNotOwner rather than
// hanging or misrouting.
func TestRouterVacatedShard(t *testing.T) {
	st := store.NewMem()
	_, addrA := subsetServer(t, 4, []int{0, 1}, st)
	srvB, addrB := subsetServer(t, 4, []int{2, 3}, st)
	m := fleetMap(t, addrA, addrB)
	vac := m.Vacate(addrB)
	if err := srvB.SetShardMap(m); err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(RouterConfig{Map: vac})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	// o1 → shard 2, vacated.
	err = r.Put(context.Background(), "o1", []byte("x"))
	if !errors.Is(err, difs.ErrNotOwner) || !strings.Contains(err.Error(), "no owner") {
		t.Fatalf("op on vacated shard: %v", err)
	}
}
