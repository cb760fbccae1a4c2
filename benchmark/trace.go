package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanKind names the call a span timed: "<layer>.<call>". It is a small
// integer, not a string, so a span holds no pointer and the collector never
// scans the span buffer during a traced pass.
type spanKind uint8

const (
	salnetGet spanKind = iota
	salnetPut
	difsGet
	difsPut
	devRead
	devWrite
	devTrim
	storePut // a node's page store, under blockdev.OpenDurable
	storeGet
	storeDelete
	storeList
	storeSync
	metaPut // the cluster's manifest store, under Cluster.AttachMeta
	metaGet
	metaDelete
	metaList
	metaSync
)

var kindNames = [...]string{
	"salnet.get", "salnet.put", "difs.get", "difs.put",
	"blockdev.read", "blockdev.write", "blockdev.trim",
	"store.put", "store.get", "store.delete", "store.list", "store.sync",
	"store.meta_put", "store.meta_get", "store.meta_delete", "store.meta_list", "store.meta_sync",
}

func (k spanKind) String() string { return kindNames[k] }

// isRoot: a client call, recorded by the harness itself around a
// salnet.Client call or a direct difs call.
func (k spanKind) isRoot() bool     { return k <= difsPut }
func (k spanKind) isGet() bool      { return k == salnetGet || k == difsGet }
func (k spanKind) isDevice() bool   { return k >= devRead && k <= devTrim }
func (k spanKind) isStore() bool    { return k >= storePut }
func (k spanKind) isStorePut() bool { return k == storePut || k == metaPut }

func (k spanKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

func (k *spanKind) UnmarshalText(b []byte) error {
	for i, name := range kindNames {
		if name == string(b) {
			*k = spanKind(i)
			return nil
		}
	}
	return fmt.Errorf("unknown span name %q", b)
}

// span is one timed call at a layer boundary, recorded by the harness's own
// wrappers (nothing inside internal/ is instrumented).
type span struct {
	Name spanKind `json:"name"`
	// Node is the fleet node whose device or store served the call; -1 for
	// roots and the cluster's manifest store.
	Node  int   `json:"node"`
	Start int64 `json:"start"` // wall ns since the recorder's epoch
	End   int64 `json:"end"`
	// Parent is the index of the span that caused this one, -1 for a root,
	// -2 for background (work no client call was waiting for).
	Parent int `json:"parent"`
	Bytes  int `json:"bytes,omitempty"`
}

const (
	parentRoot       = -1
	parentBackground = -2
)

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the pass ends. It records only while
// on, so fleet set-up and preload leave no spans.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

// newRecorder sizes the buffer for the pass up front: a PUT records about 40
// spans on the durable fleet, and growing the buffer mid-pass would show up
// as tracing overhead.
func newRecorder(ops int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, ops*40)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// add records a span that started at start and ends now.
func (r *recorder) add(name spanKind, node int, start int64, bytes int) {
	if !r.on.Load() {
		return
	}
	end := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Node: node, Start: start, End: end, Parent: parentBackground, Bytes: bytes})
	r.mu.Unlock()
}

// attribute assigns every span its parent. The traced passes keep one op in
// flight, so roots never overlap and a device or store call belongs to the
// root whose interval contains it; a store call made from inside a device
// call (DurableDevice.Write -> store.Put) belongs to that device span, matched
// by node because replica writes may one day overlap. Anything outside every
// root is background.
func attribute(spans []span) {
	var roots []int
	for i := range spans {
		if spans[i].Name.isRoot() {
			spans[i].Parent = parentRoot
			roots = append(roots, i)
		}
	}
	sort.Slice(roots, func(a, b int) bool { return spans[roots[a]].Start < spans[roots[b]].Start })
	rootOf := func(s span) int {
		// Last root starting at or before s.
		k := sort.Search(len(roots), func(k int) bool { return spans[roots[k]].Start > s.Start }) - 1
		if k < 0 || s.End > spans[roots[k]].End {
			return parentBackground
		}
		return roots[k]
	}
	devsOf := map[int][]int{} // root -> its device spans
	for i := range spans {
		if spans[i].Name.isDevice() {
			spans[i].Parent = rootOf(spans[i])
			devsOf[spans[i].Parent] = append(devsOf[spans[i].Parent], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		if !s.Name.isStore() {
			continue
		}
		s.Parent = rootOf(*s)
		for _, d := range devsOf[s.Parent] {
			if spans[d].Node == s.Node && spans[d].Start <= s.Start && s.End <= spans[d].End {
				s.Parent = d
				break
			}
		}
	}
}

// children indexes spans by parent.
func children(spans []span) map[int][]int {
	kids := map[int][]int{}
	for i, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], i)
	}
	return kids
}

// covered returns how much of span p the spans idx cover: the length of the
// union of their intervals clipped to p. Overlapping children count once.
func covered(spans []span, p int, idx []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(idx))
	for _, i := range idx {
		a, b := max(spans[i].Start, spans[p].Start), min(spans[i].End, spans[p].End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
	var total, end int64
	for k, v := range ivs {
		if k == 0 || v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(spans []span, kids map[int][]int, i int) int64 {
	return spans[i].dur() - covered(spans, i, kids[i])
}

func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func readSpans(r io.Reader) ([]span, error) {
	var out []span
	dec := json.NewDecoder(r)
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}
