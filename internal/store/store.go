// Package store defines the minimal persistence interface behind every
// durable layer of the system (tensorvault ADR-003's shape): a flat
// key→blob namespace with atomic, idempotent puts. Implementations back
// the durable devices' pages and state records (blockdev.Persister, shared
// by blockdev.OpenDurable and core.OpenDurable) and the difs cluster's
// object manifests (internal/difs), so each layer is backend-agnostic —
// RAM for tests, sharded local files for real kill-the-binary durability,
// object storage later without touching the callers.
//
// Keys are slash-separated paths ("obj/alpha", "pg/3/17"). The contract
// every implementation honors:
//
//   - Put is atomic: after a crash at any instant, Get returns either the
//     complete previous value or the complete new one, never a prefix.
//   - Put is idempotent: re-putting the same key/value is safe and cheap.
//   - Delete of a missing key succeeds (idempotent cleanup).
//   - List returns keys in sorted order, so recovery walks are
//     deterministic.
package store

import "errors"

// Sentinel errors.
var (
	// ErrNotFound reports a Get of a key that has no committed value.
	ErrNotFound = errors.New("store: key not found")
	// ErrLayout reports an on-disk layout whose version this build does not
	// understand; the caller decides whether to quarantine or refuse.
	ErrLayout = errors.New("store: incompatible layout version")
	// ErrBadKey reports a key the backend cannot represent (empty, or
	// containing path escapes after decoding).
	ErrBadKey = errors.New("store: invalid key")
)

// Store is the minimal durable blob store.
type Store interface {
	// Put atomically commits data under key, replacing any prior value.
	// The data is durable (to the backend's configured sync discipline)
	// before Put returns.
	Put(key string, data []byte) error
	// Get returns the committed value for key, or ErrNotFound.
	Get(key string) ([]byte, error)
	// Delete removes key. Deleting a missing key succeeds.
	Delete(key string) error
	// List returns the committed keys with the given prefix, sorted.
	List(prefix string) ([]string, error)
	// Sync flushes any deferred durability work (directory metadata).
	Sync() error
	// Close releases resources. The store must not be used afterwards.
	Close() error
}
