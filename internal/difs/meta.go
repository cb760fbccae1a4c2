package difs

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"strconv"

	"salamander/internal/blockdev"
	"salamander/internal/store"
)

// Manifest persistence: every object's placement — which chunks it has,
// their checksums, and which (node, device, minidisk, slot) holds each
// replica — is serialized to an attached store.Store. The manifest write is
// the commit point of every acked mutation: Put/Replace/Delete return only
// after their manifest change is durable, and recovery (recover.go)
// rebuilds the cluster view from manifests plus the devices' own persisted
// contents, verifying every replica's checksum before trusting it.

// metaFormatKey/metaFormatV1 stamp the manifest namespace so an older (or
// foreign) layout is detected instead of misread.
const (
	metaFormatKey = "meta/format"
	metaFormatV1  = "difs-meta-v1"
	objPrefix     = "obj/"
	quarPrefix    = "quarantine/"
	// metaShardsKey stamps a sharded manifest store with its shard count.
	// The name→shard hash decides each manifest's on-disk prefix, so
	// reopening under a different count would silently lose objects;
	// AttachMeta refuses a mismatch instead.
	metaShardsKey = "meta/shards"
	// metaOwnPrefix holds per-shard ownership claims ("meta/own/<i>" →
	// canonical OwnShards string) so fleet processes sharing one store
	// layout can never open the same shard (see claimOwnedShards).
	metaOwnPrefix = "meta/own/"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// chunkSum is the replica-verification checksum over a chunk's padded
// content.
func chunkSum(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

func objKey(name string) string { return objPrefix + name }

// replicaRec pins one replica to its physical slot.
type replicaRec struct {
	Node NodeID              `json:"node"`
	Dev  int                 `json:"dev"`
	MD   blockdev.MinidiskID `json:"md"`
	Slot int                 `json:"slot"`
}

type chunkRec struct {
	Idx      int          `json:"idx"`
	Sum      uint32       `json:"sum"`
	Shard    int          `json:"shard,omitempty"` // shard index within the stripe (EC)
	Replicas []replicaRec `json:"replicas"`
}

type stripeRec struct {
	Chunks []chunkRec `json:"chunks"` // len k+m, shard order
}

// objRec is one object's durable manifest.
type objRec struct {
	Name string `json:"name"`
	Size int    `json:"size"`
	// K/M record the erasure-coding shape the object was written with
	// (zero = replicated). Recovery refuses to reinterpret an object under
	// a different shape.
	K       int         `json:"k,omitempty"`
	M       int         `json:"m,omitempty"`
	Chunks  []chunkRec  `json:"chunks,omitempty"`  // replicated objects
	Stripes []stripeRec `json:"stripes,omitempty"` // EC objects
}

// AttachMeta attaches a durable manifest store. From this point on, every
// acked mutation flushes its manifest changes before returning. If the
// store carries an unknown manifest format, its records are moved under
// "quarantine/" (returned count) and the namespace restarts empty — an old
// layout degrades to a repair problem for the operator, it is never
// silently reinterpreted as current-format bytes.
func (c *Cluster) AttachMeta(st store.Store) (quarantined int, err error) {
	view, quarantined, err := c.openLayout(st)
	if err != nil {
		return quarantined, err
	}
	for _, sh := range c.owned {
		q, aerr := sh.attachMeta(view(sh.id))
		quarantined += q
		if aerr != nil {
			return quarantined, fmt.Errorf("difs: attach shard %d: %w", sh.id, aerr)
		}
	}
	return quarantined, nil
}

// openLayout is the one function that knows how manifests are laid out in a
// store, which depends on the shard count alone:
//
//	Shards == 1  the pre-sharding v1 layout: the shard's keys sit unprefixed
//	             at the root (meta/format = difs-meta-v1, obj/<name>).
//	Shards  > 1  meta/shards = N at the root, shard i's keys under "s<i>/"
//	             (s<i>/meta/format, s<i>/obj/<name>), plus the meta/own/<i>
//	             ownership claims of subset-scoped processes.
//
// It checks — and on a fresh store stamps — the root, and returns each
// shard's view of the store. The two layouts refuse each other, and a
// sharded store refuses a different count: the name→shard hash decides which
// prefix holds a manifest, so reopening under another count would silently
// lose objects. Resharding is an explicit operator migration, never an
// accident. A root in an unknown older format is quarantined (counted in the
// return) the way a shard quarantines its own (attachMeta).
func (c *Cluster) openLayout(st store.Store) (view func(shard int) store.Store, quarantined int, err error) {
	n := len(c.shards)
	raw, gerr := st.Get(metaShardsKey)
	if n == 1 {
		if gerr == nil {
			return nil, 0, fmt.Errorf("difs: manifest store is sharded (%s shards); set Config.Shards to match", raw)
		}
		return func(int) store.Store { return st }, 0, nil
	}
	switch {
	case gerr == nil:
		if got, aerr := strconv.Atoi(string(raw)); aerr != nil || got != n {
			return nil, 0, fmt.Errorf("difs: manifest store is sharded %s-ways, cluster wants %d", raw, n)
		}
	case errors.Is(gerr, store.ErrNotFound):
		rawf, ferr := st.Get(metaFormatKey)
		switch {
		case errors.Is(ferr, store.ErrNotFound):
			// Fresh store: stamp and go.
		case ferr != nil:
			return nil, 0, fmt.Errorf("difs: read meta format: %w", ferr)
		case string(rawf) == metaFormatV1:
			return nil, 0, fmt.Errorf("difs: manifest store holds an unsharded %s namespace; open it with Shards=1 (resharding is an explicit migration)", metaFormatV1)
		default:
			quarantined, err = quarantineOldFormat(st, string(rawf))
			if err != nil {
				return nil, quarantined, err
			}
			if derr := st.Delete(metaFormatKey); derr != nil {
				return nil, quarantined, fmt.Errorf("difs: clear old meta format: %w", derr)
			}
			c.first().handles().recoverQuarantined.Add(uint64(quarantined))
		}
		if perr := st.Put(metaShardsKey, []byte(strconv.Itoa(n))); perr != nil {
			return nil, quarantined, fmt.Errorf("difs: stamp shard count: %w", perr)
		}
	default:
		return nil, 0, fmt.Errorf("difs: read shard stamp: %w", gerr)
	}
	if err := c.claimOwnedShards(st); err != nil {
		return nil, quarantined, err
	}
	return func(i int) store.Store { return store.Prefixed(st, fmt.Sprintf("s%d/", i)) }, quarantined, nil
}

// claimOwnedShards enforces shard-level mutual exclusion across the
// processes sharing one store layout. A subset-scoped cluster stamps every
// shard it owns with meta/own/<i> = its canonical subset string:
//
//   - absent stamp       → claim it (write, then read back: the store's
//     atomic last-writer-wins rename arbitrates a concurrent claim, and the
//     loser sees the winner's subset on read-back and refuses);
//   - stamp == my subset → a same-shaped reopen (restart/recovery), proceed;
//   - stamp != my subset → another subset holds the shard, refuse.
//
// A full-ownership cluster writes no stamps but refuses a store any subset
// has claimed — the fleet layout and the single-process layout must never
// open each other's trees by accident.
func (c *Cluster) claimOwnedShards(st store.Store) error {
	if c.cfg.OwnShards == nil {
		claimed, err := st.List(metaOwnPrefix)
		if err != nil {
			return fmt.Errorf("difs: list shard claims: %w", err)
		}
		if len(claimed) > 0 {
			return fmt.Errorf("difs: manifest store is subset-claimed (%d shard stamps under %s); open it with the matching OwnShards subset", len(claimed), metaOwnPrefix)
		}
		return nil
	}
	mine := []byte(ownShardsCanonical(c.cfg.OwnShards))
	for _, i := range c.cfg.OwnShards {
		key := metaOwnPrefix + strconv.Itoa(i)
		raw, err := st.Get(key)
		switch {
		case errors.Is(err, store.ErrNotFound):
			if perr := st.Put(key, mine); perr != nil {
				return fmt.Errorf("difs: claim shard %d: %w", i, perr)
			}
			back, gerr := st.Get(key)
			if gerr != nil {
				return fmt.Errorf("difs: verify shard %d claim: %w", i, gerr)
			}
			if string(back) != string(mine) {
				return fmt.Errorf("difs: lost shard %d claim race to subset %q", i, back)
			}
		case err != nil:
			return fmt.Errorf("difs: read shard %d claim: %w", i, err)
		case string(raw) != string(mine):
			return fmt.Errorf("difs: shard %d already claimed by subset %q (this process owns %s)", i, raw, mine)
		}
	}
	return nil
}

// attachMeta attaches the shard's view of the manifest store, stamping a
// fresh namespace with the manifest format and quarantining one in an
// unknown older format.
func (sh *shard) attachMeta(st store.Store) (quarantined int, err error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	raw, err := st.Get(metaFormatKey)
	switch {
	case errors.Is(err, store.ErrNotFound):
		if err := st.Put(metaFormatKey, []byte(metaFormatV1)); err != nil {
			return 0, fmt.Errorf("difs: stamp meta format: %w", err)
		}
	case err != nil:
		return 0, fmt.Errorf("difs: read meta format: %w", err)
	case string(raw) != metaFormatV1:
		quarantined, err = quarantineOldFormat(st, string(raw))
		if err != nil {
			return quarantined, err
		}
		if err := st.Put(metaFormatKey, []byte(metaFormatV1)); err != nil {
			return quarantined, fmt.Errorf("difs: stamp meta format: %w", err)
		}
		sh.tele.recoverQuarantined.Add(uint64(quarantined))
	}
	sh.meta = st
	sh.metaDirty = map[string]bool{}
	return quarantined, nil
}

// quarantineOldFormat moves every manifest of an unknown-format store under
// "quarantine/<format>/" so the namespace can restart empty without
// destroying the old records.
func quarantineOldFormat(st store.Store, old string) (quarantined int, err error) {
	keys, lerr := st.List(objPrefix)
	if lerr != nil {
		return 0, fmt.Errorf("difs: quarantine %q manifests: %w", old, lerr)
	}
	for _, k := range keys {
		if data, gerr := st.Get(k); gerr == nil {
			if perr := st.Put(quarPrefix+old+"/"+k, data); perr != nil {
				return quarantined, fmt.Errorf("difs: quarantine %q: %w", k, perr)
			}
		}
		if derr := st.Delete(k); derr != nil {
			return quarantined, fmt.Errorf("difs: quarantine %q: %w", k, derr)
		}
		quarantined++
	}
	return quarantined, nil
}

// markDirty notes that an object's manifest no longer matches the store.
// No-op until AttachMeta.
func (sh *shard) markDirty(name string) {
	if sh.metaDirty != nil {
		sh.metaDirty[name] = true
	}
}

// markChunkDirty notes a change to ch's replica list — once ch's object has
// entered the namespace. Chunks of an object still being placed appear in no
// manifest: dirtying their name would make a failed placement's rollback
// rewrite the manifest of the object already stored under that name, or
// delete one that never existed.
func (sh *shard) markChunkDirty(ch *chunk) {
	if ch.obj.installed {
		sh.markDirty(ch.obj.name)
	}
}

// flushMeta writes every dirty manifest (sorted, for deterministic store
// traffic). Names whose object is gone have their record deleted. A failed
// write keeps its name dirty so the next flush retries; the first error is
// returned so ack paths can refuse to ack.
func (sh *shard) flushMeta() error {
	if sh.meta == nil || len(sh.metaDirty) == 0 {
		return nil
	}
	names := make([]string, 0, len(sh.metaDirty))
	for name := range sh.metaDirty {
		names = append(names, name)
	}
	sort.Strings(names)
	var firstErr error
	for _, name := range names {
		var err error
		if obj, ok := sh.objects[name]; ok {
			raw, merr := json.Marshal(sh.objRecord(obj))
			if merr != nil {
				err = merr
			} else {
				err = sh.meta.Put(objKey(name), raw)
			}
		} else {
			err = sh.meta.Delete(objKey(name))
		}
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("difs: flush manifest %q: %w", name, err)
			}
			continue
		}
		delete(sh.metaDirty, name)
	}
	return firstErr
}

// objRecord serializes an object's current placement.
func (sh *shard) objRecord(obj *object) objRec {
	rec := objRec{Name: obj.name, Size: obj.size}
	if len(obj.stripes) > 0 {
		rec.K, rec.M = sh.codec.K, sh.codec.M
		for _, st := range obj.stripes {
			var sr stripeRec
			for _, ch := range st.chunks {
				sr.Chunks = append(sr.Chunks, chunkRecord(ch))
			}
			rec.Stripes = append(rec.Stripes, sr)
		}
		return rec
	}
	for _, ch := range obj.chunks {
		rec.Chunks = append(rec.Chunks, chunkRecord(ch))
	}
	return rec
}

func chunkRecord(ch *chunk) chunkRec {
	cr := chunkRec{Idx: ch.idx, Sum: ch.sum, Shard: ch.shardIdx}
	for _, r := range ch.replicas {
		cr.Replicas = append(cr.Replicas, replicaRec{
			Node: r.tgt.key.node, Dev: r.tgt.key.dev, MD: r.tgt.key.md, Slot: r.slot,
		})
	}
	return cr
}
