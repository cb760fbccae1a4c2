package difs

import (
	"sort"
	"testing"

	"salamander/internal/store"
)

// Shard-agnostic accessors for the test corpus. The whole difs test suite
// doubles as the sharded-cluster conformance battery: ci.sh replays it with
// DIFS_SHARDS=4 and DIFS_SHARDS=16, so every white-box inspection below must
// resolve internals through the shard that owns them instead of assuming the
// single-lock layout.

// objOf returns name's object struct from its owning shard.
func objOf(c *Cluster, name string) *object {
	return c.shardFor(name).objects[name]
}

// eachObject visits every stored object across all shards, in name order.
func eachObject(c *Cluster, fn func(*object)) {
	objs := map[string]*object{}
	for _, s := range c.owned {
		for name, obj := range s.objects {
			objs[name] = obj
		}
	}
	names := make([]string, 0, len(objs))
	for name := range objs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fn(objs[name])
	}
}

// eachTarget visits every (shard, target) pair. One physical minidisk
// appears once per shard that still tracks it — callers asserting "nothing
// lives here anymore" want exactly that union view.
func eachTarget(c *Cluster, fn func(key targetKey, t *target)) {
	for _, s := range c.owned {
		for _, t := range s.allTargets() {
			fn(t.key, t)
		}
	}
}

// listMeta lists manifest-store keys under prefix across every shard's
// (possibly prefixed) store, deduplicated and sorted. Shard prefixes are
// already stripped by store.Prefixed, so keys compare equal across shard
// counts.
func listMeta(t *testing.T, c *Cluster, prefix string) []string {
	t.Helper()
	seen := map[string]bool{}
	for _, s := range c.owned {
		keys, err := s.meta.List(prefix)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			seen[k] = true
		}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// manifests returns the store view holding name's manifest: whatever the
// on-disk layout, the record sits at objKey(name) in it.
func manifests(c *Cluster, name string) store.Store {
	return c.shardFor(name).meta
}

// chunkBytes is the cluster's chunk size in bytes.
func (c *Cluster) chunkBytes() int { return c.first().chunkBytes() }
