package salnet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"salamander/internal/difs"
	"salamander/internal/shardmap"
	"salamander/internal/telemetry"
	"salamander/internal/wire"
)

// Router is the fleet-aware client: it routes every keyed op to the shard's
// owner per its shard map (difs.ShardOf — the same pure hash the servers
// shard by), holding one pooled Client per endpoint. A StatusNotOwner
// rejection carries the owner's current encoded map; the Router installs it
// if newer and transparently retries the op once against the re-routed
// owner, so a fleet can move shards (graceful drain, operator reassignment)
// under live clients without surfacing errors.
//
// All methods are safe for concurrent use.
type Router struct {
	cfg RouterConfig

	mu      sync.Mutex
	m       *shardmap.Map
	clients map[string]*Client
	stats   map[string]*endpointStats
	reg     *telemetry.Registry
	tr      *telemetry.Tracer
	closed  bool

	tele rTele
}

// RouterConfig parameterizes a Router.
type RouterConfig struct {
	// Map is the initial shard map (required; typically shardmap.Load of the
	// fleet's map file).
	Map *shardmap.Map
	// Client is the per-endpoint client template; Addr is overridden per
	// endpoint.
	Client ClientConfig
}

// mapRetries bounds transparent re-routes after a NotOwner rejection: adopt
// the map the rejection carries, retry against the new owner, then give up —
// a second rejection means the fleet and the client disagree in a way one
// refresh cannot fix.
const mapRetries = 1

// rTele holds the router's registry-backed telemetry handles.
type rTele struct {
	ops       *telemetry.Counter
	redirects *telemetry.Counter
	refreshes *telemetry.Counter
	mapEpoch  *telemetry.Gauge
}

func bindRtrTele(reg *telemetry.Registry) rTele {
	return rTele{
		ops:       reg.Counter("net.router.ops"),
		redirects: reg.Counter("shardmap.client_redirects"),
		refreshes: reg.Counter("shardmap.client_refreshes"),
		mapEpoch:  reg.Gauge("shardmap.client_epoch"),
	}
}

// endpointStats tracks one endpoint's share of the router's traffic.
type endpointStats struct {
	ops, errs, redirects uint64
}

// EndpointStats is one endpoint's traffic summary.
type EndpointStats struct {
	Endpoint string `json:"endpoint"`
	Ops      uint64 `json:"ops"`
	Errors   uint64 `json:"errors"`
	// Redirects counts NotOwner rejections this endpoint answered — nonzero
	// means the router's map was stale for keys it sent here.
	Redirects uint64 `json:"redirects"`
}

// NewRouter builds a router over cfg.Map. Connections are dialed lazily per
// endpoint on first use.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Map == nil {
		return nil, errors.New("salnet: router requires a shard map")
	}
	if err := cfg.Map.Validate(); err != nil {
		return nil, err
	}
	r := &Router{
		cfg:     cfg,
		m:       cfg.Map.Clone(),
		clients: map[string]*Client{},
		stats:   map[string]*endpointStats{},
	}
	r.tele = bindRtrTele(telemetry.NewRegistry())
	r.tele.mapEpoch.Set(float64(r.m.Epoch))
	return r, nil
}

// Instrument rebinds the router's counters to a shared registry and attaches
// a tracer; both are also handed to every endpoint client (existing and
// future).
func (r *Router) Instrument(reg *telemetry.Registry, tr *telemetry.Tracer) {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reg, r.tr = reg, tr
	r.tele = bindRtrTele(reg)
	r.tele.mapEpoch.Set(float64(r.m.Epoch))
	for _, cl := range r.clients {
		cl.Instrument(reg, tr)
	}
}

// Close terminates every endpoint client.
func (r *Router) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	clients := make([]*Client, 0, len(r.clients))
	for _, cl := range r.clients {
		clients = append(clients, cl)
	}
	r.mu.Unlock()
	for _, cl := range clients {
		_ = cl.Close()
	}
	return nil
}

// install adopts m if it is newer than the current map. Reports whether the
// routing view changed.
func (r *Router) install(m *shardmap.Map) bool {
	if m == nil || m.Validate() != nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.Epoch <= r.m.Epoch {
		return false
	}
	r.m = m.Clone()
	r.tele.refreshes.Inc()
	r.tele.mapEpoch.Set(float64(m.Epoch))
	return true
}

// client returns (dialing if needed) the pooled client for an endpoint.
func (r *Router) client(endpoint string) (*Client, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClientClosed
	}
	if cl, ok := r.clients[endpoint]; ok {
		r.mu.Unlock()
		return cl, nil
	}
	reg, tr := r.reg, r.tr
	r.mu.Unlock()

	ccfg := r.cfg.Client
	ccfg.Addr = endpoint
	cl, err := Dial(ccfg)
	if err != nil {
		return nil, err
	}
	if reg != nil {
		cl.Instrument(reg, tr)
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		_ = cl.Close()
		return nil, ErrClientClosed
	}
	if cur, ok := r.clients[endpoint]; ok {
		r.mu.Unlock()
		_ = cl.Close()
		return cur, nil
	}
	r.clients[endpoint] = cl
	r.mu.Unlock()
	return cl, nil
}

func (r *Router) noteOp(endpoint string, err error, redirect bool) {
	r.mu.Lock()
	st := r.stats[endpoint]
	if st == nil {
		st = &endpointStats{}
		r.stats[endpoint] = st
	}
	st.ops++
	// A miss is a normal outcome, not an endpoint failure; counting it
	// would make a read-before-write workload look like a half-dead fleet.
	if err != nil && !errors.Is(err, difs.ErrNotFound) {
		st.errs++
	}
	if redirect {
		st.redirects++
	}
	r.mu.Unlock()
}

// route resolves key's current owner.
func (r *Router) route(key string) (shard int, endpoint string, err error) {
	r.mu.Lock()
	m := r.m
	r.mu.Unlock()
	shard, endpoint = m.Owner(key)
	if endpoint == "" {
		return shard, "", fmt.Errorf("%w: shard %d has no owner in map epoch %d", difs.ErrNotOwner, shard, m.Epoch)
	}
	return shard, endpoint, nil
}

// do routes one keyed op to its owner, absorbing up to mapRetries stale-
// map rejections: each NotOwner response's payload (the owner's current map)
// is installed and the op re-issued against the re-resolved owner.
func (r *Router) do(ctx context.Context, f wire.Frame) (wire.Frame, error) {
	r.tele.ops.Inc()
	key := string(f.Key)
	var lastErr error
	for attempt := 0; attempt <= mapRetries; attempt++ {
		_, endpoint, err := r.route(key)
		if err != nil {
			return wire.Frame{}, err
		}
		cl, err := r.client(endpoint)
		if err != nil {
			r.noteOp(endpoint, err, false)
			return wire.Frame{}, err
		}
		resp, err := cl.do(ctx, f)
		if !errors.Is(err, difs.ErrNotOwner) {
			r.noteOp(endpoint, err, false)
			return resp, err
		}
		// Stale routing: the rejection carries the owner's current map.
		r.tele.redirects.Inc()
		r.noteOp(endpoint, err, true)
		lastErr = fmt.Errorf("salnet: %s %q rejected by %s: %w", f.Op, key, endpoint, err)
		if m, derr := shardmap.Decode(resp.Payload); derr == nil {
			r.install(m)
		}
	}
	return wire.Frame{}, fmt.Errorf("salnet: gave up after %d re-routes: %w", mapRetries, lastErr)
}

// Put stores data under key on the key's owner.
func (r *Router) Put(ctx context.Context, key string, data []byte) error {
	_, err := r.do(ctx, wire.Frame{Op: wire.OpPut, Key: []byte(key), Payload: data})
	return err
}

// Get reads the whole object at key from the key's owner.
func (r *Router) Get(ctx context.Context, key string) ([]byte, error) {
	resp, err := r.do(ctx, wire.Frame{Op: wire.OpGet, Key: []byte(key)})
	if err != nil {
		return nil, err
	}
	return resp.Payload, nil
}

// EndpointStats summarizes per-endpoint traffic, sorted by endpoint.
func (r *Router) EndpointStats() []EndpointStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]EndpointStats, 0, len(r.stats))
	for ep, st := range r.stats {
		out = append(out, EndpointStats{Endpoint: ep, Ops: st.ops, Errors: st.errs, Redirects: st.redirects})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Endpoint < out[j].Endpoint })
	return out
}
