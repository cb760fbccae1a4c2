// Package difs implements the distributed storage layer of the paper: a
// replicated object store that treats every minidisk as an independent
// failure domain (§3.2). Objects are split into fixed-size chunks, each
// replicated on R distinct nodes. When a device decommissions a minidisk,
// the affected chunks are re-replicated from surviving copies — the
// "existing, end-to-end redundancy mechanisms" Salamander leverages — and
// the recovery traffic is accounted for §4.3's comparison.
//
// The cluster is deliberately storage-centric: no networking, leases, or
// consensus — the paper's argument only needs R-way replication over
// independent failure domains, placement, failure handling, and measurable
// recovery traffic. Device events arrive synchronously; repairs run when
// the driver calls Repair, mirroring how production systems separate failure
// detection from re-replication.
package difs

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"salamander/internal/blockdev"
	"salamander/internal/sim"
	"salamander/internal/telemetry"
)

// Errors returned by cluster operations.
var (
	ErrNoSpace      = errors.New("difs: not enough cluster capacity for placement")
	ErrNotFound     = errors.New("difs: object not found")
	ErrDataLoss     = errors.New("difs: all replicas of a chunk are gone")
	ErrAlreadyExist = errors.New("difs: object already exists")
	// ErrNotOwner means the operation routed to a metadata shard this
	// process does not own (Config.OwnShards scoped the cluster to a
	// subset). The serving layer maps it to StatusNotOwner so a routing
	// client can refresh its shard map and retry against the right owner.
	ErrNotOwner = errors.New("difs: shard not owned by this process")
)

// Placement selects how chunks map onto a node's minidisks. The paper
// (§3.2) leaves the mDisk placement policy open; the two extremes here feed
// the correlated-failure ablation in the benchmark harness.
type Placement int

// Placement policies.
const (
	// PlacementSpread targets the emptiest minidisk, spreading a node's
	// chunks across many failure domains (each minidisk failure touches
	// few chunks).
	PlacementSpread Placement = iota
	// PlacementPack fills one minidisk before opening the next,
	// concentrating chunks (each minidisk failure takes out many chunks at
	// once — cheaper metadata, worse blast radius).
	PlacementPack
)

// Config parameterizes a cluster.
type Config struct {
	// ReplicationFactor is the number of copies per chunk (default 3).
	ReplicationFactor int
	// ChunkOPages is the chunk size in 4KB oPages. Chunks must fit in a
	// minidisk; production systems use large blocks (HDFS: 128MB), scaled
	// down here to match simulated device sizes.
	ChunkOPages int
	// Placement selects the per-node minidisk choice policy.
	Placement Placement
	// ECDataShards/ECParityShards > 0 switch Put to Reed-Solomon erasure
	// coding: objects are striped into ECDataShards chunk-sized data
	// shards plus ECParityShards parity chunks, each stored once on a
	// distinct node. Requires at least ECDataShards+ECParityShards nodes.
	// Zero selects ReplicationFactor-way replication.
	ECDataShards   int
	ECParityShards int
	// ReadRetries re-reads an oPage that failed with ErrUncorrectable up to
	// this many times (on top of the device's own retries). Zero means a
	// single attempt; negative is rejected.
	ReadRetries int
	// RetryBackoff is the virtual-time delay before the first cluster-level
	// read retry; it doubles per attempt. Applied only to devices exposing a
	// simulation engine with no pending events. Zero disables the delay.
	RetryBackoff sim.Time
	// FlapLimit quarantines a node that crash/restarts more than this many
	// times: instead of rejoining, its targets are dropped and repaired from
	// surviving copies (flapping nodes churn the repair queue endlessly).
	// Zero disables quarantine; negative is rejected.
	FlapLimit int
	Seed      uint64
	// Shards partitions the metadata/control plane into this many
	// independently locked shards behind the Cluster (consistent hash over
	// the object name, see ShardOf). 1 is a cluster of one shard: one lock,
	// and the unprefixed manifest layout. 0 means "unset": NewCluster
	// consults the DIFS_SHARDS environment variable (used by CI to replay
	// the whole test corpus at several shard counts) and falls back to 1.
	// Negative is rejected.
	Shards int
	// OwnShards scopes a sharded cluster to a subset of its metadata
	// shards — the multi-process scale-out contract: each salsrv process
	// owns a disjoint subset of one logical cluster's shard ring. Only the
	// listed shards are instantiated (opened, recovered, repaired,
	// served); an operation routing to any other shard fails with
	// ErrNotOwner so the serving layer can redirect the client. Entries
	// must be in [0, Shards); duplicates are deduplicated. nil (or all
	// shards listed) keeps full ownership. Requires Shards > 1.
	OwnShards []int
}

// DefaultConfig returns 3-way replication with 16-oPage (64KB) chunks.
func DefaultConfig() Config {
	return Config{ReplicationFactor: 3, ChunkOPages: 16, Seed: 11}
}

// NodeID identifies a storage node.
type NodeID int

// Stats aggregates cluster activity.
type Stats struct {
	PutBytes, GetBytes int64
	// RecoveryBytes counts bytes written by repair (one chunk per rebuilt
	// copy); RecoveryReadBytes counts the bytes repair had to read — equal
	// under replication, k-times amplified under erasure coding (§4.3's
	// comparison looks very different between the two).
	RecoveryBytes     int64
	RecoveryReadBytes int64
	RecoveryOps       int64
	// DegradedReads are Get operations that fell back to a non-primary
	// replica.
	DegradedReads int64
	// LostChunks counts chunks whose every replica disappeared before
	// repair could run — actual data loss.
	LostChunks int64
	// DecommissionEvents/RegenerateEvents/BrickEvents count device
	// notifications processed.
	DecommissionEvents, RegenerateEvents, BrickEvents int64
	// DrainEvents counts grace-period decommission notifications;
	// Releases counts drained minidisks handed back to their devices
	// after re-replication completed.
	DrainEvents, Releases int64
	// LocalSourceRepairs counts repairs whose read source was the
	// draining minidisk itself — the §4.3 grace-period payoff.
	LocalSourceRepairs int64
	// RepairRetries counts cluster-level read retries (bounded, with
	// virtual-time backoff) in the read/repair paths.
	RepairRetries int64
	// FaultsInjected/FaultsRecovered count injected node faults and the
	// recoveries (restarts that successfully rejoined) at this layer.
	FaultsInjected, FaultsRecovered int64
	// NodeCrashes/NodeRestarts/Quarantines count crash-fault transitions.
	NodeCrashes, NodeRestarts, Quarantines int64
	// RecoverObjects counts objects rebuilt from durable manifests by
	// Recover; RecoverQuarantined counts manifests and replicas recovery
	// refused to trust (moved aside or left for repair).
	RecoverObjects, RecoverQuarantined int64
	// ShardOps counts object operations (Put/Get/Replace/Delete) routed
	// through the shard layer — one per op at any shard count. ShardEpochs
	// counts per-shard placement-epoch bumps (membership changes: targets
	// added, drained, lost, or flipped by crash/restart).
	ShardOps, ShardEpochs int64
}

// cTele holds the registry-backed handles behind Stats(). A fresh cluster
// binds them to a private registry; Instrument rebinds to a shared one, so
// Stats() is always a thin view over live telemetry values.
type cTele struct {
	putBytes, getBytes *telemetry.Counter
	recoveryBytes      *telemetry.Counter
	recoveryReadBytes  *telemetry.Counter
	recoveryOps        *telemetry.Counter
	degradedReads      *telemetry.Counter
	lostChunks         *telemetry.Counter
	decommissionEvents *telemetry.Counter
	regenerateEvents   *telemetry.Counter
	brickEvents        *telemetry.Counter
	drainEvents        *telemetry.Counter
	releases           *telemetry.Counter
	localSourceRepairs *telemetry.Counter
	repairRetries      *telemetry.Counter
	faultsInjected     *telemetry.Counter
	faultsRecovered    *telemetry.Counter
	nodeCrashes        *telemetry.Counter
	nodeRestarts       *telemetry.Counter
	quarantines        *telemetry.Counter
	recoverObjects     *telemetry.Counter
	recoverQuarantined *telemetry.Counter
	shardOps           *telemetry.Counter
	shardEpochs        *telemetry.Counter
	objectSize         *telemetry.Histogram
	repairBytes        *telemetry.Histogram
	recoverNs          *telemetry.Histogram
	tr                 *telemetry.Tracer
}

func bindTele(reg *telemetry.Registry, tr *telemetry.Tracer) cTele {
	return cTele{
		putBytes:           reg.Counter("difs.put_bytes"),
		getBytes:           reg.Counter("difs.get_bytes"),
		recoveryBytes:      reg.Counter("difs.recovery_bytes"),
		recoveryReadBytes:  reg.Counter("difs.recovery_read_bytes"),
		recoveryOps:        reg.Counter("difs.recovery_ops"),
		degradedReads:      reg.Counter("difs.degraded_reads"),
		lostChunks:         reg.Counter("difs.lost_chunks"),
		decommissionEvents: reg.Counter("difs.decommission_events"),
		regenerateEvents:   reg.Counter("difs.regenerate_events"),
		brickEvents:        reg.Counter("difs.brick_events"),
		drainEvents:        reg.Counter("difs.drain_events"),
		releases:           reg.Counter("difs.releases"),
		localSourceRepairs: reg.Counter("difs.local_source_repairs"),
		repairRetries:      reg.Counter("difs.repair_retries"),
		faultsInjected:     reg.Counter("difs.faults_injected"),
		faultsRecovered:    reg.Counter("difs.faults_recovered"),
		nodeCrashes:        reg.Counter("difs.node_crashes"),
		nodeRestarts:       reg.Counter("difs.node_restarts"),
		quarantines:        reg.Counter("difs.quarantines"),
		recoverObjects:     reg.Counter("difs.recover_objects"),
		recoverQuarantined: reg.Counter("difs.recover_quarantined"),
		shardOps:           reg.Counter("difs.shard.ops"),
		shardEpochs:        reg.Counter("difs.shard.epochs"),
		objectSize:         reg.Histogram("difs.object_size_bytes"),
		repairBytes:        reg.Histogram("difs.repair_run_bytes"),
		recoverNs:          reg.Histogram("difs.recover_ns"),
		tr:                 tr,
	}
}

// stats renders the handles' current values as a Stats snapshot.
func (t cTele) stats() Stats {
	return Stats{
		PutBytes:           int64(t.putBytes.Value()),
		GetBytes:           int64(t.getBytes.Value()),
		RecoveryBytes:      int64(t.recoveryBytes.Value()),
		RecoveryReadBytes:  int64(t.recoveryReadBytes.Value()),
		RecoveryOps:        int64(t.recoveryOps.Value()),
		DegradedReads:      int64(t.degradedReads.Value()),
		LostChunks:         int64(t.lostChunks.Value()),
		DecommissionEvents: int64(t.decommissionEvents.Value()),
		RegenerateEvents:   int64(t.regenerateEvents.Value()),
		BrickEvents:        int64(t.brickEvents.Value()),
		DrainEvents:        int64(t.drainEvents.Value()),
		Releases:           int64(t.releases.Value()),
		LocalSourceRepairs: int64(t.localSourceRepairs.Value()),
		RepairRetries:      int64(t.repairRetries.Value()),
		FaultsInjected:     int64(t.faultsInjected.Value()),
		FaultsRecovered:    int64(t.faultsRecovered.Value()),
		NodeCrashes:        int64(t.nodeCrashes.Value()),
		NodeRestarts:       int64(t.nodeRestarts.Value()),
		Quarantines:        int64(t.quarantines.Value()),
		RecoverObjects:     int64(t.recoverObjects.Value()),
		RecoverQuarantined: int64(t.recoverQuarantined.Value()),
		ShardOps:           int64(t.shardOps.Value()),
		ShardEpochs:        int64(t.shardEpochs.Value()),
	}
}

// Cluster is a replicated object store over block devices: a routing facade
// over Config.Shards metadata shards (shard.go). The Cluster holds only what
// is cluster-wide — the config, the shard slice, the slot ledger, and the
// device-event fan-out; every object, target view, repair queue and lock
// lives in a shard. Each exported method either routes a named operation to
// the one shard that owns the name (ShardOf) or aggregates over the owned
// shards in index order. Shards=1 is the same structure with one shard.
//
// Concurrency: concurrent client goroutines may share a Cluster. Operations
// on names of different shards run in parallel; operations within one shard
// serialize on that shard's mutex. The Cluster itself holds no lock while
// calling a shard. The lock order is shard → device: shard methods call into
// devices while holding the shard lock, never the reverse. Device
// notifications are therefore never applied from the device's callback —
// fanEvent queues them on every shard (evMu, the shards' pend locks and the
// ledger mutex are leaf locks, safe to take under a device lock) and each
// shard applies its queue the next time it takes its own lock. That also
// makes out-of-band device mutations safe: failing a minidisk directly while
// cluster operations are in flight never touches metadata without a lock.
type Cluster struct {
	cfg Config // Shards resolved (>= 1), OwnShards normalized
	// shards is indexed by shard id — the routing invariant — with nil at
	// the positions Config.OwnShards leaves to other processes; entry points
	// turn a nil into ErrNotOwner. owned lists the non-nil entries in id
	// order: the shards every aggregate and membership loop walks.
	shards []*shard
	owned  []*shard
	led    *slotLedger // the one physical slot book, shared by all shards

	// evMu orders fanned-out device notifications.
	evMu sync.Mutex
}

// NewCluster creates an empty cluster of cfg.Shards metadata shards (or the
// cfg.OwnShards subset of them).
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Shards == 0 {
		if v := os.Getenv("DIFS_SHARDS"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("difs: bad DIFS_SHARDS %q", v)
			}
			cfg.Shards = n
		} else {
			cfg.Shards = 1
		}
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("difs: Shards %d is negative", cfg.Shards)
	}
	own, err := normalizeOwnShards(cfg.OwnShards, cfg.Shards)
	if err != nil {
		return nil, err
	}
	cfg.OwnShards = own
	if cfg.ReplicationFactor < 1 {
		return nil, errors.New("difs: replication factor must be >= 1")
	}
	if cfg.ChunkOPages < 1 {
		return nil, errors.New("difs: chunk size must be >= 1 oPage")
	}
	if cfg.ReadRetries < 0 {
		return nil, fmt.Errorf("difs: ReadRetries %d is negative (0 means no retries)", cfg.ReadRetries)
	}
	if cfg.RetryBackoff < 0 {
		return nil, fmt.Errorf("difs: RetryBackoff %v is negative", cfg.RetryBackoff)
	}
	if cfg.FlapLimit < 0 {
		return nil, fmt.Errorf("difs: FlapLimit %d is negative (0 disables quarantine)", cfg.FlapLimit)
	}
	c := &Cluster{cfg: cfg, shards: make([]*shard, cfg.Shards), led: newSlotLedger()}
	reg := telemetry.NewRegistry()
	for _, i := range ownedOrAll(own, cfg.Shards) {
		// Device events and node faults reach every owned shard; only the
		// first owned one counts them, so fleet counters do not depend on
		// the shard count or on which subset this process holds.
		sh, err := newShard(i, cfg, c.led, reg, len(c.owned) == 0)
		if err != nil {
			return nil, err
		}
		c.shards[i] = sh
		c.owned = append(c.owned, sh)
	}
	return c, nil
}

// OwnedShards lists the metadata shards this cluster instantiates,
// ascending.
func (c *Cluster) OwnedShards() []int {
	out := make([]int, len(c.owned))
	for i, sh := range c.owned {
		out[i] = sh.id
	}
	return out
}

// shardFor routes a name to its shard; nil means the shard belongs to
// another process (see notOwnerErr).
func (c *Cluster) shardFor(name string) *shard {
	return c.shards[ShardOf(name, len(c.shards))]
}

// notOwnerErr builds the ErrNotOwner error for a name that routed to an
// unowned shard.
func (c *Cluster) notOwnerErr(name string) error {
	return fmt.Errorf("%w: %q routes to shard %d (this process owns %s)",
		ErrNotOwner, name, ShardOf(name, len(c.shards)), ownShardsCanonical(c.cfg.OwnShards))
}

// first is the lowest-index owned shard — the authoritative view for state
// every shard mirrors (membership, capacity, node flaps, telemetry handles).
func (c *Cluster) first() *shard { return c.owned[0] }

// mirrored applies a membership change to every owned shard — each keeps
// its own view of the nodes — and returns the first shard's count.
func (c *Cluster) mirrored(change func(*shard) int) int {
	n := 0
	for i, sh := range c.owned {
		if v := change(sh); i == 0 {
			n = v
		}
	}
	return n
}

// Instrument rebinds the cluster's stats to the given shared registry and
// attaches a tracer. Accumulated counter values carry over; histograms
// start empty, so instrument at startup for complete distributions. A nil
// registry detaches back onto a private one. Devices are not instrumented
// here — call their own Instrument with the same pair for a cross-layer
// view.
func (c *Cluster) Instrument(reg *telemetry.Registry, tr *telemetry.Tracer) {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	for i, sh := range c.owned {
		sh.rebindTele(reg, tr, i == 0)
	}
}

// AddNode attaches a node with its devices. The cluster registers itself
// for every device's events; each live minidisk becomes a placement target
// in every shard's view.
func (c *Cluster) AddNode(devices ...blockdev.Device) NodeID {
	id := NodeID(-1)
	for _, sh := range c.owned {
		id = sh.addNode(devices...)
	}
	// One subscription per device, held by the Cluster and never by a shard:
	// one physical event must reach every shard view exactly once, in one
	// global order.
	for di, dev := range devices {
		di := di
		dev.Notify(func(e blockdev.Event) { c.fanEvent(id, di, e) })
	}
	return id
}

// fanEvent appends one device event to every shard's pending queue. evMu is
// held across the whole fan-out so every shard receives events in the same
// global order. The queues are necessary because the event fires while the
// *emitting* shard holds its lock inside a device call — no shard lock can be
// taken here (lock order is shard → device, never device → shard), and the
// blockdev contract forbids calling back into the device.
func (c *Cluster) fanEvent(nid NodeID, dev int, e blockdev.Event) {
	c.evMu.Lock()
	defer c.evMu.Unlock()
	se := queuedEvent{nid: nid, dev: dev, e: e}
	for _, sh := range c.owned {
		sh.enqueueEvent(se)
	}
}

// Stats returns an activity snapshot. The struct is a thin view built from
// the cluster's registry-backed telemetry handles at call time; mutating
// the returned value has no effect on the live cluster.
func (c *Cluster) Stats() Stats {
	// Device events ride pending queues until the owning shard next settles;
	// force a settle so event counters read fresh at snapshot time.
	for _, sh := range c.owned {
		sh.settle()
	}
	return c.first().handles().stats()
}

// PendingRepairs reports queued under-replicated chunks.
func (c *Cluster) PendingRepairs() int {
	n := 0
	for _, sh := range c.owned {
		n += sh.pendingRepairs()
	}
	return n
}

// NodeInfo is one node's liveness summary for the ops surface: target
// lifecycle counts plus the crash/flap state the quarantine policy acts on.
type NodeInfo struct {
	ID      NodeID `json:"id"`
	Devices int    `json:"devices"`
	// Target counts by lifecycle state. Down overlaps the others: a down
	// target keeps its live/draining state and regains it on restart.
	LiveTargets     int `json:"live_targets"`
	DrainingTargets int `json:"draining_targets"`
	DeadTargets     int `json:"dead_targets"`
	DownTargets     int `json:"down_targets"`
	// Down reports the node is crashed (it has down targets).
	Down bool `json:"down"`
	// Flaps is the node's crash/restart cycle count; Quarantined reports it
	// exceeded Config.FlapLimit and its targets were dropped for good.
	Flaps       int  `json:"flaps"`
	Quarantined bool `json:"quarantined"`
}

// NodeInfos returns a per-node liveness summary in node-ID order.
func (c *Cluster) NodeInfos() []NodeInfo { return c.first().nodeInfos() }

// Capacity returns total and free cluster capacity in chunk slots. Physical
// capacity is shared: every shard sees the same targets, and free slots
// come from the shared ledger.
func (c *Cluster) Capacity() (total, free int) { return c.first().capacity() }

// Objects lists stored object names (sorted).
func (c *Cluster) Objects() []string {
	var out []string
	for _, sh := range c.owned {
		out = append(out, sh.objectList()...)
	}
	sort.Strings(out)
	return out
}

// Put stores an object under name with ReplicationFactor copies of every
// chunk. A chunk placed on fewer nodes than requested (small cluster, tight
// space) is queued for repair rather than failing the Put, as long as at
// least one copy landed.
func (c *Cluster) Put(name string, data []byte) error {
	return c.PutCtx(context.Background(), name, data)
}

// PutCtx is Put with cancellation: the context is checked at every chunk
// boundary, and an aborted Put rolls back the replicas it already placed so
// no orphan chunks survive (the serving layer's per-op deadlines rely on
// this). The returned error wraps ctx.Err().
func (c *Cluster) PutCtx(ctx context.Context, name string, data []byte) error {
	sh := c.shardFor(name)
	if sh == nil {
		return c.notOwnerErr(name)
	}
	return sh.put(ctx, name, data)
}

// ReplaceCtx is an atomic upsert: the new object's chunks are fully placed
// first, and only then is the old object (if any) dropped and the name swapped
// to the new content — one step under the shard lock. A failed replace (no
// space, expired context) rolls back the new chunks and leaves the previous
// object intact, and concurrent readers never observe the name missing or
// half-written. The price of atomicity is transient double occupancy: while
// the new copy is being placed the old one still holds its slots, so a
// replace can report ErrNoSpace where delete-then-put would have fit. The
// serving layer's OpPut maps here so a retried put converges without
// destroying data when the second attempt fails.
func (c *Cluster) ReplaceCtx(ctx context.Context, name string, data []byte) error {
	sh := c.shardFor(name)
	if sh == nil {
		return c.notOwnerErr(name)
	}
	return sh.replace(ctx, name, data)
}

// Get retrieves an object, reading each chunk from any live replica.
func (c *Cluster) Get(name string) ([]byte, error) {
	return c.GetCtx(context.Background(), name)
}

// GetCtx is Get with cancellation, checked at every chunk boundary. Reads
// are side-effect free apart from repair queueing, so an aborted Get simply
// stops; the error wraps ctx.Err().
func (c *Cluster) GetCtx(ctx context.Context, name string) ([]byte, error) {
	sh := c.shardFor(name)
	if sh == nil {
		return nil, c.notOwnerErr(name)
	}
	return sh.getOne(ctx, name)
}

// GetBatchCtx reads several objects in one pass, paying the lock
// acquisition, event settling, and metadata flush once per shard touched
// instead of once per object. Results are positional: data[i] and errs[i]
// belong to names[i], and each entry succeeds or fails independently —
// a missing object fails its slot with ErrNotFound without disturbing the
// rest. This is the serving layer's coalescing entry point: a run of
// pipelined GETs from one connection becomes a single cluster call.
//
// Names group by their metadata shard and the groups are served in shard
// index order, so a batch observes each shard's state at a single point,
// exactly like a sequence of GetCtx calls would.
func (c *Cluster) GetBatchCtx(ctx context.Context, names []string) ([][]byte, []error) {
	data := make([][]byte, len(names))
	errs := make([]error, len(names))
	// Group positionally by shard; each group costs one shard batch.
	groups := map[int][]int{}
	for i, name := range names {
		si := ShardOf(name, len(c.shards))
		groups[si] = append(groups[si], i)
	}
	for si, sh := range c.shards {
		idxs := groups[si]
		if len(idxs) == 0 {
			continue
		}
		if sh == nil {
			// Unowned shard: every name routed here fails its own slot.
			for _, i := range idxs {
				errs[i] = c.notOwnerErr(names[i])
			}
			continue
		}
		sub := make([]string, len(idxs))
		for j, i := range idxs {
			sub[j] = names[i]
		}
		d, e := sh.getBatch(ctx, sub)
		for j, i := range idxs {
			data[i], errs[i] = d[j], e[j]
		}
	}
	return data, errs
}

// Delete removes an object and trims its replicas.
func (c *Cluster) Delete(name string) error {
	return c.DeleteCtx(context.Background(), name)
}

// DeleteCtx is Delete with cancellation. Deletion is metadata-cheap, so the
// context is only consulted up front: once started, the delete completes
// atomically rather than leaving a half-trimmed object.
func (c *Cluster) DeleteCtx(ctx context.Context, name string) error {
	sh := c.shardFor(name)
	if sh == nil {
		return c.notOwnerErr(name)
	}
	return sh.del(ctx, name)
}

// RepairError aggregates the per-chunk failures of one Repair pass. Lost
// lists chunks ("object/index") whose data is unrecoverable: every replica
// dead and, for erasure-coded shards, too few stripe survivors. Deferred
// counts chunks whose surviving copies are all on crashed (down) nodes — the
// data still exists, so they are re-queued to await a restart rather than
// declared lost. Repair returns a *RepairError only when at least one chunk
// was actually lost; deferrals alone are not an error (they show up in
// PendingRepairs).
type RepairError struct {
	Lost     []string
	Deferred int
}

func (e *RepairError) Error() string {
	return fmt.Sprintf("difs: repair lost %d chunk(s), deferred %d: %v",
		len(e.Lost), e.Deferred, e.Lost)
}

// Repair drains the re-replication queue: every under-replicated chunk is
// copied from a surviving replica to new nodes until the replication factor
// is restored (or no placement exists). Draining replicas serve as local
// read sources but do not count toward the factor; once a draining
// minidisk's chunks are all re-replicated it is released back to its device
// (which then finishes the decommission). A chunk that cannot be repaired
// does not stop the pass: failures are aggregated into a *RepairError and
// every remaining chunk still gets its turn. Returns the number of chunk
// copies created — the §4.3 recovery traffic.
func (c *Cluster) Repair() (copies int, err error) {
	return c.RepairCtx(context.Background())
}

// RepairCtx is Repair with cancellation, checked before each queued chunk. An
// aborted pass puts every unprocessed chunk back on the repair queue (no work
// is forgotten, PendingRepairs still reports it) and returns the copies made
// so far alongside an error wrapping ctx.Err().
//
// The pass visits every shard with queued work, in shard order, and is
// deliberately sequential across shards: repairs consume shared placement
// capacity and wear the shared devices, so a scheduling-dependent
// interleaving would break the determinism contract (chaos reports must be
// byte-identical per seed). Shard-wise parallelism lives where it cannot
// reorder placement: Recover() fans out per-shard.
func (c *Cluster) RepairCtx(ctx context.Context) (copies int, err error) {
	var agg RepairError
	for _, sh := range c.owned {
		n, rerr := sh.repair(ctx)
		copies += n
		if rerr == nil {
			continue
		}
		var re *RepairError
		if !errors.As(rerr, &re) {
			// Context abort (or another non-aggregable failure): surface it
			// now; later shards keep their queues for the next pass.
			return copies, fmt.Errorf("difs: repair shard %d: %w", sh.id, rerr)
		}
		agg.Lost = append(agg.Lost, re.Lost...)
		agg.Deferred += re.Deferred
	}
	if len(agg.Lost) > 0 {
		return copies, &agg
	}
	return copies, nil
}

// VerifyAll reads back every object and reports the objects whose content
// could not be retrieved. It is the cluster's fsck, used by tests and the
// examples to demonstrate zero data loss under minidisk churn.
func (c *Cluster) VerifyAll(check func(name string, data []byte) error) (bad []string) {
	for _, sh := range c.owned {
		bad = append(bad, sh.verifyAll(check)...)
	}
	sort.Strings(bad)
	return bad
}

// ShardOf maps an object name to its metadata shard: 64-bit FNV-1a over the
// name, spread over [0,shards) with Lamping-Veach jump consistent hashing.
// The function is pure and pinned — manifests live under the shard's store
// prefix, so this mapping changing across builds would orphan every stored
// object (shard_test.go pins a golden table).
func ShardOf(name string, shards int) int {
	if shards <= 1 {
		return 0
	}
	const (
		fnvOffset64 = 14695981039346656037
		fnvPrime64  = 1099511628211
	)
	h := uint64(fnvOffset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnvPrime64
	}
	// Jump consistent hash (Lamping & Veach): O(ln shards), no tables, and
	// growing the shard count moves only 1/N of the keys.
	var b, j int64 = -1, 0
	for j < int64(shards) {
		b = j
		h = h*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((h>>33)+1)))
	}
	return int(b)
}

// normalizeOwnShards validates, deduplicates, and sorts an ownership
// subset. A subset covering every shard collapses to nil (full ownership).
func normalizeOwnShards(own []int, shards int) ([]int, error) {
	if own == nil {
		return nil, nil
	}
	if shards == 1 {
		return nil, fmt.Errorf("difs: OwnShards requires Shards > 1 (got %d)", shards)
	}
	if len(own) == 0 {
		return nil, fmt.Errorf("difs: OwnShards is empty (own at least one shard)")
	}
	seen := map[int]bool{}
	for _, s := range own {
		if s < 0 || s >= shards {
			return nil, fmt.Errorf("difs: OwnShards entry %d out of [0,%d)", s, shards)
		}
		seen[s] = true
	}
	if len(seen) == shards {
		return nil, nil
	}
	out := make([]int, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Ints(out)
	return out, nil
}

// ownedOrAll expands a normalized subset (nil = full) into shard indices.
func ownedOrAll(own []int, shards int) []int {
	if own != nil {
		return own
	}
	all := make([]int, shards)
	for i := range all {
		all[i] = i
	}
	return all
}

// ownShardsCanonical renders the owned subset as the canonical stamp string
// ("4,5,6,7"; "all" for full ownership) persisted in the store layout.
func ownShardsCanonical(own []int) string {
	if own == nil {
		return "all"
	}
	parts := make([]string, len(own))
	for i, s := range own {
		parts[i] = strconv.Itoa(s)
	}
	return strings.Join(parts, ",")
}
