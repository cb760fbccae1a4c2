package store

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
)

// layoutVersion is written to <root>/VERSION when a directory is first
// initialized. Opening a directory carrying a different version fails with
// ErrLayout: the caller (salsrv, tests) decides whether to quarantine the
// directory or refuse to start — silently reinterpreting an unknown layout
// is how recovery ends up serving wrong bytes.
const layoutVersion = "salstore v1"

// FileOptions parameterize a FileStore.
type FileOptions struct {
	// NoSync skips fsync on puts and deletes. Atomicity (temp-write+rename)
	// is preserved, so a killed *process* still never leaves a torn value —
	// only a power loss can. ci.sh's kill -9 smoke runs with NoSync because
	// SIGKILL does not empty the OS page cache; production directories
	// should keep fsync on.
	NoSync bool
}

// FileStore is the sharded on-disk Store (tensorvault ADR-003's layout):
//
//	<root>/VERSION        layout version stamp
//	<root>/tmp/           staging area for in-flight puts
//	<root>/sh/<xx>/<key>  committed values, sharded by FNV-1a(key)&0xff
//
// Values are flat files named by the URL-escaped key, so a data directory
// stays debuggable with ls and cat. Puts stage into tmp/, fsync, then
// rename into the shard — the standard atomic commit: after a crash a key
// either has its complete old value or its complete new value. Leftover
// tmp/ files (a crash between write and rename — the "half-renamed chunk")
// are swept on open; they were never committed, so removing them is the
// correct recovery.
type FileStore struct {
	root   string
	opts   FileOptions
	seq    atomic.Uint64
	mu     sync.Mutex // serializes shard-dir creation and Close
	shards map[string]bool
	closed bool
}

// OpenFile opens (or initializes) a sharded store rooted at dir.
func OpenFile(dir string, opts FileOptions) (*FileStore, error) {
	if err := os.MkdirAll(filepath.Join(dir, "tmp"), 0o755); err != nil {
		return nil, fmt.Errorf("store: init %s: %w", dir, err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "sh"), 0o755); err != nil {
		return nil, fmt.Errorf("store: init %s: %w", dir, err)
	}
	vpath := filepath.Join(dir, "VERSION")
	raw, err := os.ReadFile(vpath)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		if err := os.WriteFile(vpath, []byte(layoutVersion+"\n"), 0o644); err != nil {
			return nil, fmt.Errorf("store: stamp %s: %w", vpath, err)
		}
	case err != nil:
		return nil, fmt.Errorf("store: read %s: %w", vpath, err)
	case strings.TrimSpace(string(raw)) != layoutVersion:
		return nil, fmt.Errorf("%w: %s has %q, this build speaks %q",
			ErrLayout, dir, strings.TrimSpace(string(raw)), layoutVersion)
	}
	s := &FileStore{root: dir, opts: opts, shards: map[string]bool{}}
	// Sweep staging leftovers: a file here was mid-put when its owning
	// process died. It was never renamed into a shard, so it was never
	// committed (the caller never got its ack) — deleting it is the
	// recovery. Staging names embed the writer's pid, and a scale-out fleet
	// shares one manifest store across processes, so the sweep only touches
	// files whose owner is gone: deleting a LIVE sibling's in-flight put
	// would fail its commit rename out from under it.
	ents, err := os.ReadDir(filepath.Join(dir, "tmp"))
	if err != nil {
		return nil, fmt.Errorf("store: sweep tmp: %w", err)
	}
	for _, e := range ents {
		if pid, ok := tmpOwnerPid(e.Name()); ok && processAlive(pid) {
			continue
		}
		_ = os.Remove(filepath.Join(dir, "tmp", e.Name()))
	}
	return s, nil
}

// tmpOwnerPid extracts the writing process's pid from a staging file name
// ("<pid>.<seq>.tmp").
func tmpOwnerPid(name string) (int, bool) {
	head, _, ok := strings.Cut(name, ".")
	if !ok {
		return 0, false
	}
	pid, err := strconv.Atoi(head)
	if err != nil || pid <= 0 {
		return 0, false
	}
	return pid, true
}

// processAlive reports whether a process with the given pid exists (signal
// 0 probe; EPERM still means it exists). A recycled pid keeps a dead
// process's staging file alive until the next sweep — a bounded leak,
// strictly better than deleting a live writer's in-flight put.
func processAlive(pid int) bool {
	err := syscall.Kill(pid, 0)
	return err == nil || errors.Is(err, syscall.EPERM)
}

func shardOf(key string) string {
	h := fnv.New32a()
	h.Write([]byte(key))
	return fmt.Sprintf("%02x", h.Sum32()&0xff)
}

// path maps a key to its committed location.
func (s *FileStore) path(key string) string {
	return filepath.Join(s.root, "sh", shardOf(key), url.QueryEscape(key))
}

// ensureShard creates (once) the shard directory for a key.
func (s *FileStore) ensureShard(key string) (string, error) {
	sh := shardOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", fmt.Errorf("store: %s closed", s.root)
	}
	dir := filepath.Join(s.root, "sh", sh)
	if !s.shards[sh] {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", err
		}
		s.shards[sh] = true
	}
	return dir, nil
}

// Put implements Store: stage in tmp/, optionally fsync, rename into the
// shard, optionally fsync the shard directory so the rename itself is
// durable.
func (s *FileStore) Put(key string, data []byte) error {
	if key == "" {
		return ErrBadKey
	}
	shardDir, err := s.ensureShard(key)
	if err != nil {
		return fmt.Errorf("store: put %q: %w", key, err)
	}
	tmp := filepath.Join(s.root, "tmp",
		fmt.Sprintf("%d.%d.tmp", os.Getpid(), s.seq.Add(1)))
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: put %q: %w", key, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: put %q: %w", key, err)
	}
	if !s.opts.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("store: put %q: fsync: %w", key, err)
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: put %q: %w", key, err)
	}
	final := filepath.Join(shardDir, url.QueryEscape(key))
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: put %q: commit: %w", key, err)
	}
	if !s.opts.NoSync {
		if err := syncDir(shardDir); err != nil {
			return fmt.Errorf("store: put %q: sync shard: %w", key, err)
		}
	}
	return nil
}

// Get implements Store.
func (s *FileStore) Get(key string) ([]byte, error) {
	if key == "" {
		return nil, ErrBadKey
	}
	data, err := os.ReadFile(s.path(key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	if err != nil {
		return nil, fmt.Errorf("store: get %q: %w", key, err)
	}
	return data, nil
}

// Delete implements Store. Deleting a missing key succeeds.
func (s *FileStore) Delete(key string) error {
	if key == "" {
		return ErrBadKey
	}
	p := s.path(key)
	err := os.Remove(p)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: delete %q: %w", key, err)
	}
	if err == nil && !s.opts.NoSync {
		if err := syncDir(filepath.Dir(p)); err != nil {
			return fmt.Errorf("store: delete %q: sync shard: %w", key, err)
		}
	}
	return nil
}

// List implements Store: walks every shard, decoding file names back to
// keys. Undecodable names are skipped (they were not written by this store).
func (s *FileStore) List(prefix string) ([]string, error) {
	shards, err := os.ReadDir(filepath.Join(s.root, "sh"))
	if err != nil {
		return nil, fmt.Errorf("store: list %q: %w", prefix, err)
	}
	var out []string
	for _, sh := range shards {
		if !sh.IsDir() {
			continue
		}
		ents, err := os.ReadDir(filepath.Join(s.root, "sh", sh.Name()))
		if err != nil {
			return nil, fmt.Errorf("store: list %q: %w", prefix, err)
		}
		for _, e := range ents {
			key, err := url.QueryUnescape(e.Name())
			if err != nil {
				continue
			}
			if strings.HasPrefix(key, prefix) {
				out = append(out, key)
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// Sync implements Store: flushes the root directory entry itself.
func (s *FileStore) Sync() error {
	if s.opts.NoSync {
		return nil
	}
	return syncDir(s.root)
}

// Close implements Store.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

var _ Store = (*FileStore)(nil)
