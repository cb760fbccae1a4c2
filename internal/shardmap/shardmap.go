// Package shardmap defines the cluster-membership artifact of multi-process
// scale-out: a versioned assignment of the difs metadata shards to the
// salsrv endpoints that own them. One logical durable cluster is fronted by
// several processes, each opening a disjoint shard subset of the shared
// store layout; the map is how clients (and operators) know which endpoint
// serves which shard.
//
// The map is deliberately dumb — no consensus, no leases. It is a
// checksummed value with a monotonically increasing epoch, distributed two
// ways: as a file (salmap writes it, salsrv/salload read it with -shard-map),
// and piggybacked on rejection (a StatusNotOwner response carries the owner's
// map so a stale client refreshes and re-routes in one round trip). Epochs
// decide freshness: a client replaces its copy only with a higher epoch, and
// a draining server publishes an epoch+1 copy with itself vacated so clients
// re-route before the process exits.
//
// Routing is the same pure function the difs control plane shards by:
// difs.ShardOf(name, Shards). An empty owner endpoint means the shard is
// currently unowned (vacated, or never assigned); requests for it fail fast
// rather than guess.
package shardmap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"salamander/internal/difs"
)

// Serialization limits. Hostile inputs (the map rides the wire) must not
// force large allocations: a decoded map is bounded before any owner string
// is materialized.
const (
	// MaxShards bounds a decoded map's shard count.
	MaxShards = 1 << 16
	// MaxEndpointLen bounds one owner endpoint string.
	MaxEndpointLen = 256
)

// Binary layout (big-endian): magic u32, version u8, epoch u64, shards u32,
// then per shard a u16 length + owner bytes, then CRC-32C (Castagnoli) of
// everything preceding.
const (
	mapMagic   = 0x53414C4D // "SALM"
	mapVersion = 1
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Decode/validation errors.
var (
	ErrBadMap      = errors.New("shardmap: malformed map")
	ErrBadChecksum = errors.New("shardmap: checksum mismatch")
)

// Map is one immutable shard-ownership assignment. Treat a decoded or
// constructed Map as read-only; derive changed copies with Clone or Vacate
// so an epoch never mutates in place under a reader.
type Map struct {
	// Epoch orders map versions: higher wins. A fresh assignment starts at
	// 1; every ownership change (drain handoff, reassignment) publishes a
	// copy with a higher epoch.
	Epoch uint64 `json:"epoch"`
	// Shards is the difs metadata shard count the namespace is hashed over.
	// It is part of the durable layout (manifests live under per-shard
	// prefixes), so every map for one cluster carries the same value.
	Shards int `json:"shards"`
	// Owners maps shard index -> owning endpoint ("host:port"). Empty means
	// unowned: vacated by a drain, or not yet assigned.
	Owners []string `json:"owners"`
}

// New returns an unassigned map at epoch 1.
func New(shards int) *Map {
	return &Map{Epoch: 1, Shards: shards, Owners: make([]string, shards)}
}

// Validate checks structural sanity (shape and limits, not liveness).
func (m *Map) Validate() error {
	if m.Shards < 1 || m.Shards > MaxShards {
		return fmt.Errorf("%w: shard count %d", ErrBadMap, m.Shards)
	}
	if len(m.Owners) != m.Shards {
		return fmt.Errorf("%w: %d owners for %d shards", ErrBadMap, len(m.Owners), m.Shards)
	}
	if m.Epoch == 0 {
		return fmt.Errorf("%w: epoch 0 (epochs start at 1)", ErrBadMap)
	}
	for i, ep := range m.Owners {
		if len(ep) > MaxEndpointLen {
			return fmt.Errorf("%w: shard %d owner endpoint %d bytes", ErrBadMap, i, len(ep))
		}
	}
	return nil
}

// Clone returns a deep copy.
func (m *Map) Clone() *Map {
	return &Map{Epoch: m.Epoch, Shards: m.Shards, Owners: append([]string(nil), m.Owners...)}
}

// Owner routes an object key to its shard and owning endpoint. The endpoint
// is "" when the shard is unowned.
func (m *Map) Owner(key string) (shard int, endpoint string) {
	shard = difs.ShardOf(key, m.Shards)
	return shard, m.Owners[shard]
}

// OwnedBy lists the shards owned by endpoint, ascending.
func (m *Map) OwnedBy(endpoint string) []int {
	if endpoint == "" {
		return nil
	}
	var out []int
	for i, ep := range m.Owners {
		if ep == endpoint {
			out = append(out, i)
		}
	}
	return out
}

// Endpoints lists the distinct owning endpoints, sorted.
func (m *Map) Endpoints() []string {
	seen := map[string]bool{}
	var out []string
	for _, ep := range m.Owners {
		if ep == "" || seen[ep] {
			continue
		}
		seen[ep] = true
		out = append(out, ep)
	}
	sort.Strings(out)
	return out
}

// Vacate returns a copy at epoch+1 with every shard endpoint owned
// relinquished — the drain-handoff publication: clients that refresh stop
// routing to the vacating process before it exits.
func (m *Map) Vacate(endpoint string) *Map {
	next := m.Clone()
	next.Epoch++
	for i, ep := range next.Owners {
		if ep == endpoint {
			next.Owners[i] = ""
		}
	}
	return next
}

// Assign returns a copy at epoch+1 with the given shards owned by endpoint.
func (m *Map) Assign(endpoint string, shards []int) (*Map, error) {
	next := m.Clone()
	next.Epoch++
	for _, s := range shards {
		if s < 0 || s >= next.Shards {
			return nil, fmt.Errorf("%w: shard %d out of [0,%d)", ErrBadMap, s, next.Shards)
		}
		next.Owners[s] = endpoint
	}
	return next, nil
}

// Encode serializes the map with its trailing CRC-32C.
func (m *Map) Encode() ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	buf := make([]byte, 0, 17+m.Shards*8)
	buf = binary.BigEndian.AppendUint32(buf, mapMagic)
	buf = append(buf, mapVersion)
	buf = binary.BigEndian.AppendUint64(buf, m.Epoch)
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.Shards))
	for _, ep := range m.Owners {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(ep)))
		buf = append(buf, ep...)
	}
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
	return buf, nil
}

// Decode parses an encoded map, verifying magic, version, bounds, and
// checksum. It never allocates more than the input holds, so hostile bytes
// off the wire are safe to feed it.
func Decode(buf []byte) (*Map, error) {
	const fixed = 4 + 1 + 8 + 4 // magic, version, epoch, shards
	if len(buf) < fixed+4 {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadMap, len(buf))
	}
	body, sum := buf[:len(buf)-4], binary.BigEndian.Uint32(buf[len(buf)-4:])
	if crc32.Checksum(body, crcTable) != sum {
		return nil, ErrBadChecksum
	}
	if got := binary.BigEndian.Uint32(body[0:4]); got != mapMagic {
		return nil, fmt.Errorf("%w: magic %#x", ErrBadMap, got)
	}
	if body[4] != mapVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", ErrBadMap, body[4], mapVersion)
	}
	m := &Map{
		Epoch:  binary.BigEndian.Uint64(body[5:13]),
		Shards: int(binary.BigEndian.Uint32(body[13:17])),
	}
	if m.Shards < 1 || m.Shards > MaxShards {
		return nil, fmt.Errorf("%w: shard count %d", ErrBadMap, m.Shards)
	}
	off := fixed
	m.Owners = make([]string, m.Shards)
	for i := 0; i < m.Shards; i++ {
		if off+2 > len(body) {
			return nil, fmt.Errorf("%w: truncated at shard %d", ErrBadMap, i)
		}
		n := int(binary.BigEndian.Uint16(body[off : off+2]))
		off += 2
		if n > MaxEndpointLen || off+n > len(body) {
			return nil, fmt.Errorf("%w: shard %d owner length %d", ErrBadMap, i, n)
		}
		m.Owners[i] = string(body[off : off+n])
		off += n
	}
	if off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadMap, len(body)-off)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Load reads and decodes a map file.
func Load(path string) (*Map, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := Decode(raw)
	if err != nil {
		return nil, fmt.Errorf("shardmap: %s: %w", path, err)
	}
	return m, nil
}

// Save atomically writes the encoded map to path (temp file + rename), so a
// concurrent Load never observes a torn map.
func (m *Map) Save(path string) error {
	raw, err := m.Encode()
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".salmap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// String renders a compact operator-readable summary:
// "epoch=3 shards=16 127.0.0.1:4150=0-3 127.0.0.1:4151=4-7 unowned=8-15".
func (m *Map) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "epoch=%d shards=%d", m.Epoch, m.Shards)
	for _, ep := range m.Endpoints() {
		fmt.Fprintf(&b, " %s=%s", ep, FormatShardSet(m.OwnedBy(ep)))
	}
	var unowned []int
	for i, ep := range m.Owners {
		if ep == "" {
			unowned = append(unowned, i)
		}
	}
	if len(unowned) > 0 {
		fmt.Fprintf(&b, " unowned=%s", FormatShardSet(unowned))
	}
	return b.String()
}

// ParseShardSet parses an operator shard subset: comma-separated indices
// and inclusive ranges ("0,5,8-11"). The result is sorted, deduplicated,
// and bounds-checked against shards.
func ParseShardSet(spec string, shards int) ([]int, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("shardmap: empty shard set")
	}
	seen := map[int]bool{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		lo, hi := part, part
		if i := strings.IndexByte(part, '-'); i >= 0 {
			lo, hi = part[:i], part[i+1:]
		}
		a, err := strconv.Atoi(lo)
		if err != nil {
			return nil, fmt.Errorf("shardmap: bad shard %q in %q", part, spec)
		}
		b, err := strconv.Atoi(hi)
		if err != nil {
			return nil, fmt.Errorf("shardmap: bad shard %q in %q", part, spec)
		}
		if a > b {
			return nil, fmt.Errorf("shardmap: inverted range %q in %q", part, spec)
		}
		for s := a; s <= b; s++ {
			if s < 0 || s >= shards {
				return nil, fmt.Errorf("shardmap: shard %d out of [0,%d)", s, shards)
			}
			seen[s] = true
		}
	}
	out := make([]int, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Ints(out)
	return out, nil
}

// FormatShardSet renders a sorted shard subset in the canonical form
// ParseShardSet accepts, collapsing runs into ranges ("0-3,8,10-11").
func FormatShardSet(shards []int) string {
	if len(shards) == 0 {
		return ""
	}
	s := append([]int(nil), shards...)
	sort.Ints(s)
	var b strings.Builder
	for i := 0; i < len(s); {
		j := i
		for j+1 < len(s) && s[j+1] == s[j]+1 {
			j++
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		if j == i {
			fmt.Fprintf(&b, "%d", s[i])
		} else {
			fmt.Fprintf(&b, "%d-%d", s[i], s[j])
		}
		i = j + 1
	}
	return b.String()
}
